//! The compiler: spec → IR → runnable scenario.
//!
//! [`compile`] lowers a [`ScenarioSpec`] in three stages:
//!
//! 1. **topology** — [`crate::topology::build`] turns the shape spec
//!    into a [`World`] (network + boundary + agent order), drawing any
//!    stochastic structure from a `StdRng` seeded with the spec seed;
//! 2. **demand** — each program lowers to OD flows
//!    ([`crate::demand::compile_program`]), hashed off `(seed, program
//!    index, pair index)` so programs are order-independent;
//! 3. **incidents** — lane closures lower onto the existing chaos-plan
//!    machinery: a full sensor dropout on the closed link plus an
//!    all-red hold at its downstream intersection for the window.
//!
//! The result carries a combined fingerprint (scenario structure ⊕
//! chaos plan ⊕ seed, FNV-1a) — the identity that bench reports and
//! tsc-obs events attribute runs to. Everything is a pure function of
//! `(spec, seed)`: compiling the same spec twice yields bit-identical
//! networks, flows, and fingerprints.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tsc_sim::chaos::{ChaosPlan, LinkSel, NodeSel, Window};
use tsc_sim::{EnvConfig, Fnv64, LinkId, Network, Scenario, SimConfig, SimError, TscEnv};

use crate::spec::{IncidentSpec, ScenarioSpec};
use crate::{demand, topology};

/// A fully lowered scenario: ready to instantiate as a [`TscEnv`] or a
/// raw simulation.
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    /// The source spec (round-trips through the text format).
    pub spec: ScenarioSpec,
    /// Network + signal plans + demand.
    pub scenario: Scenario,
    /// Incident faults lowered onto the chaos machinery (empty when the
    /// spec declares none).
    pub chaos: ChaosPlan,
    /// Combined FNV-1a fingerprint over scenario structure, chaos plan,
    /// and seed.
    pub fingerprint: u64,
}

impl CompiledScenario {
    /// The fingerprint as the canonical 16-digit hex string.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint)
    }

    /// Number of controlled intersections.
    pub fn num_agents(&self) -> usize {
        self.scenario.signal_plans.len()
    }

    /// Instantiates the compiled world as a gym-style environment,
    /// applying the lowered incident faults (if any).
    ///
    /// # Errors
    ///
    /// Propagates environment-construction failures.
    pub fn env(
        &self,
        sim_cfg: SimConfig,
        env_cfg: EnvConfig,
        seed: u64,
    ) -> Result<TscEnv, SimError> {
        TscEnv::with_chaos(
            self.scenario.clone(),
            sim_cfg,
            env_cfg,
            seed,
            self.chaos.clone(),
        )
    }
}

/// Compiles a spec into a runnable scenario. Deterministic: same spec
/// (including its seed) ⇒ bit-identical output and fingerprint.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for degenerate topology or
/// demand parameters, out-of-range incident links, or when no demand
/// program can place a routable flow.
pub fn compile(spec: &ScenarioSpec) -> Result<CompiledScenario, SimError> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let world = topology::build(&spec.topology, &mut rng)?;
    let plans = world.signal_plans()?;
    let mut flows = Vec::new();
    for (i, prog) in spec.demand.iter().enumerate() {
        flows.extend(demand::compile_program(
            prog, i, spec.seed, &world, &mut rng,
        )?);
    }
    let chaos = lower_incidents(&spec.incidents, &world.network)?;
    let scenario = Scenario::new(spec.name.clone(), world.network, plans, flows)?;
    let fingerprint = combined_fingerprint(&scenario, &chaos, spec.seed);
    Ok(CompiledScenario {
        spec: spec.clone(),
        scenario,
        chaos,
        fingerprint,
    })
}

fn combined_fingerprint(scenario: &Scenario, chaos: &ChaosPlan, seed: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("tsc-scenario v1");
    h.write_u64(seed);
    h.write_u64(scenario.fingerprint());
    h.write_u64(chaos.fingerprint());
    h.finish()
}

/// Lowers incident lane closures: the closed link's sensors read empty
/// (full dropout) and its downstream intersection holds all-red for the
/// window — the closest faithful encoding of "this approach is shut"
/// on the existing fault machinery.
fn lower_incidents(incidents: &[IncidentSpec], network: &Network) -> Result<ChaosPlan, SimError> {
    let mut plan = ChaosPlan::new();
    for inc in incidents {
        if inc.link >= network.num_links() {
            return Err(SimError::InvalidConfig(format!(
                "incident link {} out of range ({} links)",
                inc.link,
                network.num_links()
            )));
        }
        if inc.end <= inc.start {
            return Err(SimError::InvalidConfig(
                "incident window must have end > start".into(),
            ));
        }
        let window = Window::new(inc.start, inc.end);
        let link = LinkId(inc.link);
        plan = plan.sensor_dropout(window, LinkSel::One(link), 1.0);
        let node = network.link(link).to();
        if network.node(node).is_signalized() {
            plan = plan.all_red(window, NodeSel::One(node));
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DemandProgram, TopologySpec};
    use tsc_sim::Simulation;

    fn small_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "unit-city".into(),
            seed: 17,
            topology: TopologySpec::City {
                cols: 4,
                rows: 4,
                spacing: 200.0,
                edge_removal: 0.15,
                two_lane_frac: 0.4,
                jitter: 0.15,
            },
            demand: vec![
                DemandProgram::RushHour {
                    pairs: 6,
                    peak_rate: 500.0,
                    base_rate: 50.0,
                    onset: 0.0,
                    ramp: 600.0,
                    stagger: 300.0,
                },
                DemandProgram::Uniform {
                    pairs: 4,
                    rate: 120.0,
                    start: 0.0,
                    end: 1800.0,
                },
            ],
            incidents: vec![],
        }
    }

    #[test]
    fn compile_is_deterministic_and_fingerprint_stable() {
        let a = compile(&small_spec()).unwrap();
        let b = compile(&small_spec()).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.scenario.fingerprint(), b.scenario.fingerprint());
        assert_eq!(a.scenario.flows.len(), b.scenario.flows.len());
        let mut other = small_spec();
        other.seed = 18;
        let c = compile(&other).unwrap();
        assert_ne!(a.fingerprint, c.fingerprint, "seed is part of the identity");
    }

    #[test]
    fn compiled_env_runs_and_reports_fingerprint() {
        let compiled = compile(&small_spec()).unwrap();
        let mut env = compiled
            .env(SimConfig::default(), EnvConfig::default(), 3)
            .unwrap();
        assert_eq!(env.scenario_fingerprint(), compiled.scenario.fingerprint());
        let obs = env.reset(3);
        assert_eq!(obs.len(), compiled.num_agents());
        let actions = vec![0usize; compiled.num_agents()];
        let step = env.step(&actions).unwrap();
        assert_eq!(step.rewards.len(), compiled.num_agents());
    }

    #[test]
    fn incidents_lower_to_chaos_faults() {
        let mut spec = small_spec();
        spec.incidents = vec![IncidentSpec {
            link: 0,
            start: 60,
            end: 300,
        }];
        let compiled = compile(&spec).unwrap();
        assert!(!compiled.chaos.is_empty());
        assert_eq!(compiled.chaos.sensing().len(), 1);
        let plain = compile(&small_spec()).unwrap();
        assert_ne!(
            compiled.fingerprint, plain.fingerprint,
            "incidents change the identity"
        );
        assert_eq!(
            compiled.scenario.fingerprint(),
            plain.scenario.fingerprint(),
            "but not the underlying network/demand"
        );
    }

    #[test]
    fn oversized_topology_built_in_code_is_rejected() {
        for topology in [
            TopologySpec::City {
                cols: 100_000,
                rows: 100_000,
                spacing: 200.0,
                edge_removal: 0.1,
                two_lane_frac: 0.4,
                jitter: 0.1,
            },
            TopologySpec::Grid {
                cols: usize::MAX,
                rows: usize::MAX,
                spacing: 200.0,
            },
            TopologySpec::Corridor {
                length: crate::spec::MAX_INTERSECTIONS + 1,
                spacing: 200.0,
            },
        ] {
            let spec = ScenarioSpec {
                topology,
                ..small_spec()
            };
            match compile(&spec) {
                Err(SimError::InvalidConfig(m)) => assert!(m.contains("at most"), "{m}"),
                other => panic!("{topology:?}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    /// A spec may ask for any finite spacing; 1e15 m links parse and
    /// compile, and the simulator refuses them instead of looping over
    /// their traversal.
    #[test]
    fn links_beyond_the_traversal_bound_fail_set_up() {
        let mut spec = small_spec();
        spec.topology = TopologySpec::Grid {
            cols: 2,
            rows: 2,
            spacing: 1e15,
        };
        let spec = ScenarioSpec::from_text(&spec.to_text()).unwrap();
        let compiled = compile(&spec).unwrap();
        assert!(matches!(
            Simulation::new(&compiled.scenario, SimConfig::default(), 1),
            Err(SimError::InvalidConfig(msg)) if msg.contains("traversal bound")
        ));
        assert!(compiled
            .env(SimConfig::default(), EnvConfig::default(), 1)
            .is_err());
    }

    #[test]
    fn incident_link_out_of_range_is_rejected() {
        let mut spec = small_spec();
        spec.incidents = vec![IncidentSpec {
            link: 100_000,
            start: 0,
            end: 60,
        }];
        assert!(compile(&spec).is_err());
        let mut bad_window = small_spec();
        bad_window.incidents = vec![IncidentSpec {
            link: 0,
            start: 60,
            end: 60,
        }];
        assert!(compile(&bad_window).is_err());
    }
}
