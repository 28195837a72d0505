//! Admission control & overload robustness: the brownout ladder must
//! be invisible without overload (bit-identical, pinned against the
//! pre-admission fleet), deterministic under replay, and must never
//! violate a tenant's max-shed-rate SLA — checked both by targeted
//! tests and a property test over random load programs.

use pairuplight::{PairUpLight, PairUpLightConfig};
use proptest::prelude::*;
use tsc_serve::{
    Admission, AdmissionConfig, FleetConfig, FleetRuntime, LoadPlan, ServeConfig, ServeError,
    ServedBy, ServiceLevel, SlaClass, TenantSel, TenantSpec,
};
use tsc_sim::scenario::grid::{Grid, GridConfig};
use tsc_sim::scenario::patterns::{flows, FlowPattern, PatternConfig};
use tsc_sim::{EnvConfig, SimConfig, TscEnv, Window};

fn tiny_env(seed_pattern: FlowPattern, horizon: u32) -> TscEnv {
    let grid = Grid::build(GridConfig {
        cols: 2,
        rows: 2,
        spacing: 150.0,
    })
    .unwrap();
    let f = flows(&grid, seed_pattern, &PatternConfig::default()).unwrap();
    let scenario = grid.scenario("admission-test", f).unwrap();
    TscEnv::new(
        scenario,
        SimConfig::default(),
        EnvConfig {
            decision_interval: 5,
            episode_horizon: horizon,
        },
        0,
    )
    .unwrap()
}

fn small_cfg() -> PairUpLightConfig {
    PairUpLightConfig {
        hidden: 16,
        lstm_hidden: 16,
        ..Default::default()
    }
}

fn three_tenants(serve_cfg: ServeConfig) -> (Vec<TscEnv>, Vec<TenantSpec>) {
    let patterns = [FlowPattern::One, FlowPattern::Three, FlowPattern::Five];
    let mut envs = Vec::new();
    let mut specs = Vec::new();
    for (i, &p) in patterns.iter().enumerate() {
        let env = tiny_env(p, 2000);
        let model = PairUpLight::new(&env, small_cfg());
        specs.push(TenantSpec {
            name: format!("tenant-{i}"),
            snapshot: model.policy_snapshot(),
            serve_cfg,
            checkpoint: None,
            sla: Default::default(),
        });
        envs.push(env);
    }
    (envs, specs)
}

/// Folds the externally observable behavior of a clean fleet run —
/// actions, supervisor states, who served — exactly as a pre-admission
/// caller would have seen it (deliberately NOT `FleetStep::digest`,
/// which may grow fields).
fn behavior_digest(fleet: &mut FleetRuntime, envs: &mut [TscEnv], steps: usize) -> u64 {
    let mut obs: Vec<_> = envs
        .iter_mut()
        .enumerate()
        .map(|(i, env)| env.reset(100 + i as u64))
        .collect();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mix = |byte: u64, h: &mut u64| {
        *h ^= byte;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for _ in 0..steps {
        let views: Vec<&[_]> = obs.iter().map(|o| o.as_slice()).collect();
        let out = fleet.step(&views).unwrap();
        for (i, (t, env)) in out.tenants.iter().zip(envs.iter_mut()).enumerate() {
            mix(t.state.index() as u64, &mut h);
            mix(u64::from(t.panicked), &mut h);
            for &a in &t.actions {
                mix(a as u64, &mut h);
            }
            obs[i] = env.step(&t.actions).unwrap().obs;
        }
    }
    h
}

/// Acceptance pin: with no overload and the default SLA config, the
/// fleet's output is bit-identical to the pre-admission fleet. The
/// constant below was produced by this exact scenario on the tree
/// BEFORE the admission layer and the zero-degradation swap landed —
/// it must never move.
#[test]
fn default_config_is_bit_identical_to_pre_admission_fleet() {
    let (mut envs, specs) = three_tenants(ServeConfig::default());
    let mut fleet = FleetRuntime::new(
        FleetConfig {
            seed: 77,
            ..Default::default()
        },
        specs,
    );
    let digest = behavior_digest(&mut fleet, &mut envs, 30);
    println!("clean-fleet behavior digest: {digest:#018x}");
    assert_eq!(digest, PRE_ADMISSION_DIGEST);
}

/// Captured from the pre-PR tree (see
/// `default_config_is_bit_identical_to_pre_admission_fleet`).
const PRE_ADMISSION_DIGEST: u64 = 0xfd54_7cd7_9367_d04f;

/// With admission *enabled* but the offered load inside capacity,
/// every step is Full service and the output digest still matches the
/// pre-admission pin — the layer is invisible until it must act.
#[test]
fn in_capacity_admission_is_invisible() {
    let (mut envs, specs) = three_tenants(ServeConfig::default());
    let mut fleet = FleetRuntime::new(
        FleetConfig {
            seed: 77,
            // 3 tenants × 4 agents × 1 offered = 12 ≤ 100.
            admission: Some(AdmissionConfig { capacity: 100 }),
            ..Default::default()
        },
        specs,
    );
    let digest = behavior_digest(&mut fleet, &mut envs, 30);
    assert_eq!(digest, PRE_ADMISSION_DIGEST);
    let adm = fleet.admission().unwrap();
    for t in 0..3 {
        assert_eq!(adm.shed_steps(t), 0);
        assert_eq!(fleet.tenant_stats(t).brownout_steps, 0);
    }
}

/// Drives a fleet under an explicit load plan; returns the folded
/// step digest and every tenant's (level, served_by, actions) trace.
#[allow(clippy::type_complexity)]
fn drive_loaded(
    fleet: &mut FleetRuntime,
    envs: &mut [TscEnv],
    plan: &LoadPlan,
    seed: u64,
    steps: usize,
) -> (u64, Vec<Vec<(ServiceLevel, ServedBy, Vec<usize>)>>) {
    let mut obs: Vec<_> = envs
        .iter_mut()
        .enumerate()
        .map(|(i, env)| env.reset(100 + i as u64))
        .collect();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut traces = vec![Vec::new(); envs.len()];
    for step in 0..steps {
        let offered = plan.offered_all(seed, step as u64, envs.len());
        let views: Vec<&[_]> = obs.iter().map(|o| o.as_slice()).collect();
        let out = fleet.step_with_load(&views, &offered).unwrap();
        digest = (digest ^ out.digest()).wrapping_mul(0x0000_0100_0000_01b3);
        for (i, (t, env)) in out.tenants.iter().zip(envs.iter_mut()).enumerate() {
            traces[i].push((t.level, t.served_by, t.actions.clone()));
            obs[i] = env.step(&t.actions).unwrap().obs;
        }
    }
    (digest, traces)
}

/// Overload engages the brownout ladder in priority order: the gold
/// tenant keeps full service, lower tenants brown out, held steps
/// hold the previous plan verbatim, and the whole run replays
/// bit-for-bit from `(seed, plan)`.
#[test]
fn overload_browns_out_by_priority_and_replays_bit_for_bit() {
    let sla = |priority, max_shed_rate| SlaClass {
        priority,
        max_shed_rate,
        ..Default::default()
    };
    let build = || {
        let (envs, mut specs) = three_tenants(ServeConfig::default());
        specs[0].sla = sla(2, 0.0);
        specs[1].sla = sla(1, 0.0);
        specs[2].sla = sla(0, 0.9);
        let fleet = FleetRuntime::new(
            FleetConfig {
                seed: 13,
                // Gold at full service (4 agents × 4 offered = 16)
                // fits; silver only affords Standby (cost 2 of the
                // remaining 3); bronze cannot (2 > 1) and its SLA
                // allows shedding.
                admission: Some(AdmissionConfig { capacity: 19 }),
                ..Default::default()
            },
            specs,
        );
        (envs, fleet)
    };
    let plan = LoadPlan::new().phase(Window::new(10, 40), TenantSel::All, 4, 0);

    let (mut envs, mut fleet) = build();
    let (digest_a, traces) = drive_loaded(&mut fleet, &mut envs, &plan, 13, 50);

    // Before the surge everyone is Full.
    for trace in &traces {
        assert!(trace[..10]
            .iter()
            .all(|(level, _, _)| *level == ServiceLevel::Full));
    }
    // During the surge: gold keeps full service, bronze browns out
    // every step and gets shed at least once (its SLA allows it).
    let surge = 10..40;
    assert!(traces[0][surge.clone()]
        .iter()
        .all(|(level, _, _)| *level == ServiceLevel::Full));
    assert!(traces[2][surge.clone()]
        .iter()
        .all(|(level, _, _)| level.browned_out()));
    assert!(traces[2][surge.clone()]
        .iter()
        .any(|(level, _, _)| *level == ServiceLevel::Shed));
    // Held steps (decimated off-steps, shed steps) hold the previous
    // plan verbatim.
    for trace in &traces {
        for (i, (_, served_by, actions)) in trace.iter().enumerate() {
            if *served_by == ServedBy::Held {
                assert!(i > 0, "nothing to hold on the first step");
                assert_eq!(actions, &trace[i - 1].2, "held step holds the plan");
            }
        }
    }
    // After the surge the ladder releases: everyone Full again.
    for trace in &traces {
        assert!(trace[45..]
            .iter()
            .all(|(level, _, _)| *level == ServiceLevel::Full));
    }
    // Zero-shed SLAs were honored outright.
    let adm = fleet.admission().unwrap();
    assert_eq!(adm.shed_steps(0), 0);
    assert_eq!(adm.shed_steps(1), 0);
    assert!(fleet.tenant_stats(2).shed_steps > 0);
    assert_eq!(
        fleet.tenant_stats(2).shed_steps,
        adm.shed_steps(2),
        "stats and controller agree"
    );

    // Bit-for-bit replay of the whole overloaded run.
    let (mut envs_b, mut fleet_b) = build();
    let (digest_b, _) = drive_loaded(&mut fleet_b, &mut envs_b, &plan, 13, 50);
    assert_eq!(digest_a, digest_b);

    // Admission telemetry landed in the tenant's merged view.
    let tel = fleet.tenant_telemetry(2);
    assert!(tel.shed_requests() > 0);
    assert!(tel.offered_requests() > tel.shed_requests());
    assert!(tel.steps_at(ServiceLevel::Full) >= 20);
}

/// `step_with_load` validates its shape, and without admission the
/// offered load is inert (bit-identical to plain `step`).
#[test]
fn offered_load_is_validated_and_inert_without_admission() {
    let (mut envs, specs) = three_tenants(ServeConfig::default());
    let mut fleet = FleetRuntime::new(FleetConfig::default(), specs);
    let obs0 = envs[0].reset(1);
    let obs1 = envs[1].reset(2);
    let obs2 = envs[2].reset(3);
    let views: Vec<&[_]> = vec![obs0.as_slice(), obs1.as_slice(), obs2.as_slice()];
    match fleet.step_with_load(&views, &[1, 1]) {
        Err(ServeError::OfferedLoadMismatch {
            got: 2,
            expected: 3,
        }) => {}
        other => panic!("expected OfferedLoadMismatch, got {other:?}"),
    }
    // No admission configured: a huge offered load changes nothing.
    let loaded = fleet.step_with_load(&views, &[1_000_000, 1_000_000, 1_000_000]);
    let loaded_digest = loaded.unwrap().digest();
    let (mut envs_b, specs_b) = three_tenants(ServeConfig::default());
    let mut plain = FleetRuntime::new(FleetConfig::default(), specs_b);
    let obs_b: Vec<_> = envs_b
        .iter_mut()
        .enumerate()
        .map(|(i, env)| env.reset(1 + i as u64))
        .collect();
    let views_b: Vec<&[_]> = obs_b.iter().map(|o| o.as_slice()).collect();
    assert_eq!(loaded_digest, plain.step(&views_b).unwrap().digest());
}

/// Offered load is caller input: a hostile `u64::MAX` per tenant is
/// answered on every step (the request counters saturate), never a
/// panic.
#[test]
fn hostile_offered_load_never_panics_the_fleet() {
    let (mut envs, specs) = three_tenants(ServeConfig::default());
    let mut fleet = FleetRuntime::new(
        FleetConfig {
            admission: Some(AdmissionConfig { capacity: 100 }),
            ..Default::default()
        },
        specs,
    );
    let obs: Vec<_> = envs
        .iter_mut()
        .enumerate()
        .map(|(i, env)| env.reset(1 + i as u64))
        .collect();
    let views: Vec<&[_]> = obs.iter().map(|o| o.as_slice()).collect();
    for _ in 0..2 {
        assert!(fleet.step_with_load(&views, &[u64::MAX; 3]).is_ok());
    }
    assert_eq!(fleet.tenant_telemetry(0).offered_requests(), u64::MAX);
}

// ---------------------------------------------------------------------
// Satellite: property test — random load programs + SLA configs never
// violate a tenant's max shed rate, and the whole level sequence
// replays bit-for-bit from (seed, plan).
// ---------------------------------------------------------------------

const PROP_TENANTS: usize = 3;

#[derive(Debug, Clone)]
struct PhaseSpec {
    start: u32,
    len: u32,
    tenant: Option<usize>,
    base: u64,
    jitter: u64,
}

fn phase_strategy() -> impl Strategy<Value = PhaseSpec> {
    (
        0u32..80,
        1u32..80,
        prop_oneof![Just(None), (0..PROP_TENANTS).prop_map(Some)],
        0u64..40,
        0u64..10,
    )
        .prop_map(|(start, len, tenant, base, jitter)| PhaseSpec {
            start,
            len,
            tenant,
            base,
            jitter,
        })
}

fn sla_strategy() -> impl Strategy<Value = SlaClass> {
    (0u8..4, prop_oneof![Just(0.0), 0.05f64..0.9]).prop_map(|(priority, max_shed_rate)| SlaClass {
        priority,
        max_shed_rate,
        ..Default::default()
    })
}

fn build_plan(phases: &[PhaseSpec]) -> LoadPlan {
    phases.iter().fold(LoadPlan::new(), |plan, p| {
        plan.phase(
            Window::new(p.start, p.start.saturating_add(p.len)),
            p.tenant.map_or(TenantSel::All, TenantSel::One),
            p.base,
            p.jitter,
        )
    })
}

/// Runs a pure admission controller over the plan; returns the level
/// sequence and asserts the shed cap at every prefix.
fn run_admission(
    seed: u64,
    capacity: u64,
    classes: &[SlaClass],
    plan: &LoadPlan,
    steps: u64,
) -> Vec<Vec<ServiceLevel>> {
    let agents = [4usize, 9, 4];
    let mut adm = Admission::new(AdmissionConfig { capacity }, classes.to_vec(), seed);
    let mut levels = Vec::new();
    for step in 0..steps {
        let offered = plan.offered_all(seed, step, PROP_TENANTS);
        levels.push(adm.decide(step, &offered, &agents));
        for (t, class) in classes.iter().enumerate() {
            let ratio = adm.shed_steps(t) as f64 / adm.steps(t) as f64;
            assert!(
                ratio <= class.max_shed_rate + 1e-12,
                "tenant {t} shed ratio {ratio} exceeds cap {} at step {step}",
                class.max_shed_rate
            );
        }
    }
    levels
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_load_never_violates_shed_caps_and_replays(
        phases in proptest::collection::vec(phase_strategy(), 0..5),
        classes in proptest::collection::vec(sla_strategy(), PROP_TENANTS),
        capacity in 1u64..200,
        seed in 0u64..1_000,
    ) {
        let plan = build_plan(&phases);
        let a = run_admission(seed, capacity, &classes, &plan, 120);
        let b = run_admission(seed, capacity, &classes, &plan, 120);
        prop_assert_eq!(a, b, "same (seed, plan, config) must replay bit-for-bit");
    }
}
