//! Compiled-scenario integration: training and stepping on *non-grid*
//! topologies produced by the tsc-scenario compiler, up to city scale.
//!
//! The paper's experiments live on the 6×6 grid and Monaco; these
//! tests are the evidence that the whole stack — pairing, training,
//! serving-side stepping — is topology-agnostic: it consumes whatever
//! network the compiler emits.

use pairuplight::{PairUpLight, PairUpLightConfig};
use tsc_baselines::MaxPressureController;
use tsc_scenario::{city_spec, compile, corridor_spec, ring_spec};
use tsc_sim::{Controller, EnvConfig, Fnv64, IntersectionObs, SimConfig, Simulation};

fn env_cfg(horizon: u32) -> EnvConfig {
    EnvConfig {
        decision_interval: 5,
        episode_horizon: horizon,
    }
}

fn tiny_net() -> PairUpLightConfig {
    let mut cfg = PairUpLightConfig {
        hidden: 8,
        lstm_hidden: 8,
        ..Default::default()
    };
    cfg.ppo.epochs = 1;
    cfg
}

/// PairUpLight trains end-to-end on a compiled arterial corridor — a
/// line graph, not a lattice — with uniform four-phase plans, so
/// pairing and parameter sharing both engage off-grid.
#[test]
fn pairuplight_trains_on_compiled_corridor() {
    let compiled = compile(&corridor_spec(6, 3)).expect("corridor compiles");
    let mut env = compiled
        .env(SimConfig::default(), env_cfg(400), 0)
        .expect("env");
    assert_eq!(env.num_agents(), 6);
    let mut model = PairUpLight::new(&env, tiny_net());
    let ep = model.train_episode(&mut env, 0).expect("episode");
    assert!(ep.stats.spawned > 0, "corridor demand must produce traffic");
}

/// PairUpLight trains on a compiled ring road — a cycle graph with
/// three-way intersections (heterogeneous phase sets, so no parameter
/// sharing), the same regime as the paper's Monaco experiment but on a
/// different generator.
#[test]
fn pairuplight_trains_on_compiled_ring() {
    let compiled = compile(&ring_spec(12, 5)).expect("ring compiles");
    let mut env = compiled
        .env(SimConfig::default(), env_cfg(400), 0)
        .expect("env");
    let mut cfg = tiny_net();
    cfg.parameter_sharing = false;
    let mut model = PairUpLight::new(&env, cfg);
    let ep = model.train_episode(&mut env, 0).expect("episode");
    assert!(ep.stats.spawned > 0, "ring demand must produce traffic");
}

/// A 1000+ intersection compiled city steps end-to-end on the event
/// core through the gym environment: observations arrive for every
/// agent, MaxPressure actions apply, rewards come back, and vehicle
/// conservation holds. (The training variant is `#[ignore]`d below —
/// this one stays tier-1 fast by not building a model.)
#[test]
fn thousand_intersection_city_steps_end_to_end() {
    let compiled = compile(&city_spec(1000, 42)).expect("city-1024 compiles");
    assert!(compiled.num_agents() >= 1000);
    let mut env = compiled
        .env(SimConfig::default(), env_cfg(3600), 42)
        .expect("env");
    let mut controller = MaxPressureController::default();
    controller.reset();
    let mut obs = env.reset(42);
    assert_eq!(obs.len(), compiled.num_agents());
    for _ in 0..3 {
        let raw = controller.decide(&obs);
        let actions: Vec<usize> = raw
            .iter()
            .enumerate()
            .map(|(i, &a)| env.clamp_action(i, a))
            .collect();
        let step = env.step(&actions).expect("step");
        assert_eq!(step.rewards.len(), compiled.num_agents());
        obs = step.obs;
    }
    let sim = env.sim();
    assert_eq!(
        sim.metrics().spawned(),
        sim.active_vehicles() + sim.metrics().finished(),
        "conservation at city scale"
    );
    assert_eq!(env.scenario_fingerprint(), compiled.scenario.fingerprint());
}

/// Folds every field of one observation, floats by their exact bits.
fn hash_obs(h: &mut Fnv64, o: &IntersectionObs) {
    h.write_usize(o.node.index());
    h.write_u64(u64::from(o.time));
    h.write_usize(o.incoming.len());
    for l in o.incoming.iter() {
        h.write_usize(l.link.index());
        h.write_usize(l.direction.index());
        h.write_f64(l.count);
        h.write_f64(l.halting);
        for &m in &l.halting_by_movement {
            h.write_f64(m);
        }
        h.write_f64(l.head_wait);
    }
    h.write_usize(o.outgoing_counts.len());
    for (&c, &l) in o.outgoing_counts.iter().zip(o.outgoing_links.iter()) {
        h.write_f64(c);
        h.write_usize(l.index());
    }
    h.write_usize(o.outgoing_links.len());
    h.write_usize(o.current_phase);
    h.write_usize(o.num_phases);
}

/// Golden observation pin: the FNV-1a of every field of every
/// `observe_all` over a full hour of a ~200-signal compiled city under
/// MaxPressure, driven as perfbench's `city_3k` loop drives its city
/// (observe, decide, `request_phase`, then seven steps). The hour ends
/// congested on an irregular network, which the 6×6 golden fixtures
/// never reach, so any change to sensing — range cut-offs, lazy
/// positions, movement attribution, head waits — moves the digest.
#[test]
fn city_hour_observations_match_golden_digest() {
    let compiled = compile(&city_spec(200, 42)).expect("city-200 compiles");
    let mut sim = Simulation::new(&compiled.scenario, SimConfig::default(), 42).expect("sim");
    let agents = sim.signalized();
    let phases: Vec<usize> = compiled
        .scenario
        .signal_plans
        .iter()
        .map(|p| p.num_phases())
        .collect();
    let mut controller = MaxPressureController::default();
    controller.reset();
    let mut h = Fnv64::new();
    let mut steps = 0;
    while sim.time() < 3600 {
        let obs = sim.observe_all();
        for o in &obs {
            hash_obs(&mut h, o);
        }
        let actions = controller.decide(&obs);
        for ((&node, &a), &p) in agents.iter().zip(&actions).zip(&phases) {
            sim.request_phase(node, a % p).expect("valid phase");
        }
        for _ in 0..7 {
            sim.step().expect("step");
        }
        steps += 1;
    }
    assert_eq!(steps, 515);
    assert_eq!(sim.active_vehicles(), 6578, "the hour ends congested");
    assert_eq!(
        h.finish(),
        0x86f3_b04e_7442_811e,
        "observation digest {:016x}",
        h.finish()
    );
}

/// Full training on the 1000-intersection corridor. Too slow for
/// tier-1 (a per-agent model bank at this scale takes minutes); run
/// with `cargo test -- --ignored` when touching the compiler or the
/// training loop.
#[test]
#[ignore = "city-scale training takes minutes; tier-1 covers stepping"]
fn thousand_intersection_corridor_trains() {
    let compiled = compile(&corridor_spec(1000, 7)).expect("corridor-1000 compiles");
    let mut env = compiled
        .env(SimConfig::default(), env_cfg(200), 0)
        .expect("env");
    assert_eq!(env.num_agents(), 1000);
    let mut model = PairUpLight::new(&env, tiny_net());
    let ep = model.train_episode(&mut env, 0).expect("episode");
    assert!(ep.stats.steps > 0);
}
