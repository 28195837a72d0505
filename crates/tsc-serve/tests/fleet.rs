//! Fleet supervision under infrastructure chaos: crash isolation must
//! be bitwise (a faulty tenant never perturbs a healthy one), the
//! infra-chaos plan must obey the chaos engine's determinism
//! guarantees (empty plan == no plan; same seed+plan replays
//! bit-for-bit), and the quarantine → reload → recovery cycle must
//! complete — or stop retrying — exactly as configured.

use std::time::Duration;

use pairuplight::{PairUpLight, PairUpLightConfig};
use tsc_baselines::MaxPressureController;
use tsc_serve::{
    FleetConfig, FleetRuntime, InfraChaosPlan, ServeConfig, ServeError, SupervisorConfig,
    TenantSel, TenantSpec, TenantState,
};
use tsc_sim::scenario::grid::{Grid, GridConfig};
use tsc_sim::scenario::patterns::{flows, FlowPattern, PatternConfig};
use tsc_sim::{Controller, EnvConfig, SimConfig, TscEnv, Window};

fn tiny_env(seed_pattern: FlowPattern, horizon: u32) -> TscEnv {
    let grid = Grid::build(GridConfig {
        cols: 2,
        rows: 2,
        spacing: 150.0,
    })
    .unwrap();
    let f = flows(&grid, seed_pattern, &PatternConfig::default()).unwrap();
    let scenario = grid.scenario("fleet-test", f).unwrap();
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

/// Three independent 2×2 tenants over distinct flow patterns.
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

/// Runs `fleet` for `steps` fleet steps, each tenant driving its own
/// environment (env `i` reset with seed `100 + i`); returns every
/// tenant's full action trace plus the folded step digests.
fn drive(
    fleet: &mut FleetRuntime,
    envs: &mut [TscEnv],
    steps: usize,
) -> (Vec<Vec<Vec<usize>>>, Vec<u64>) {
    let mut obs: Vec<_> = envs
        .iter_mut()
        .enumerate()
        .map(|(i, env)| env.reset(100 + i as u64))
        .collect();
    let mut traces = vec![Vec::new(); envs.len()];
    let mut digests = Vec::new();
    for _ in 0..steps {
        let views: Vec<&[_]> = obs.iter().map(|o| o.as_slice()).collect();
        let out = fleet.step(&views).unwrap();
        digests.push(out.digest());
        for (i, (t, env)) in out.tenants.iter().zip(envs.iter_mut()).enumerate() {
            traces[i].push(t.actions.clone());
            let step = env.step(&t.actions).unwrap();
            assert!(!step.done, "horizon outlives the test");
            obs[i] = step.obs;
        }
    }
    (traces, digests)
}

/// Tier-1 acceptance pin: a tenant whose policy panics on every step
/// serves exactly the warm-standby MaxPressure actions, while every
/// other tenant's output is bit-identical to a fleet without the
/// faulty tenant's faults. The process never aborts.
#[test]
fn panicking_tenant_degrades_to_max_pressure_and_is_bitwise_isolated() {
    let serve_cfg = ServeConfig::default();
    let plan = InfraChaosPlan::new().tenant_panic(Window::always(), TenantSel::One(1), 1.0);
    let cfg = FleetConfig {
        // Fast backoff so the whole retry budget burns within the run.
        supervisor: SupervisorConfig {
            backoff_base: 1,
            backoff_max: 2,
            ..Default::default()
        },
        seed: 5,
        ..Default::default()
    };

    let (mut envs_a, specs_a) = three_tenants(serve_cfg);
    let mut faulty = FleetRuntime::new(cfg, specs_a);
    faulty.set_infra_chaos(plan).unwrap();
    let (trace_a, _) = drive(&mut faulty, &mut envs_a, 40);

    let (mut envs_b, specs_b) = three_tenants(serve_cfg);
    let mut clean = FleetRuntime::new(cfg, specs_b);
    let (trace_b, _) = drive(&mut clean, &mut envs_b, 40);

    // Isolation: the healthy tenants never see the faults.
    assert_eq!(trace_a[0], trace_b[0], "tenant 0 unaffected");
    assert_eq!(trace_a[2], trace_b[2], "tenant 2 unaffected");

    // Degradation: the faulty tenant is exactly MaxPressure. The
    // mirror replays tenant 1's obs stream through a standalone
    // controller with the same min-hold.
    let mut mirror_env = tiny_env(FlowPattern::Three, 2000);
    let mut mirror = MaxPressureController::new(serve_cfg.fallback_min_hold.max(1));
    mirror.reset();
    let mut obs = mirror_env.reset(101);
    for (i, actions) in trace_a[1].iter().enumerate() {
        let want = mirror.decide(&obs);
        assert_eq!(actions, &want, "step {i}: faulty tenant == MaxPressure");
        obs = mirror_env.step(actions).unwrap().obs;
    }

    // The tenant ends quarantined with its reload budget spent (every
    // recovery attempt re-panics) and its panic count accounted.
    assert_eq!(faulty.tenant_state(1), TenantState::Quarantined);
    let stats = faulty.tenant_stats(1);
    assert!(stats.panics > 0);
    assert_eq!(
        stats.reload_attempts,
        u64::from(SupervisorConfig::default().retry_budget),
        "retries stop at the budget"
    );
    assert_eq!(faulty.tenant_state(0), TenantState::Healthy);
    assert_eq!(faulty.tenant_state(2), TenantState::Healthy);
}

/// Determinism pin 1: installing an empty plan is bit-identical to
/// never installing one.
#[test]
fn empty_plan_is_bit_identical_to_no_plan() {
    let cfg = FleetConfig::default();
    let (mut envs_a, specs_a) = three_tenants(ServeConfig::default());
    let mut without = FleetRuntime::new(cfg, specs_a);
    let (trace_a, digests_a) = drive(&mut without, &mut envs_a, 25);

    let (mut envs_b, specs_b) = three_tenants(ServeConfig::default());
    let mut with_empty = FleetRuntime::new(cfg, specs_b);
    with_empty.set_infra_chaos(InfraChaosPlan::new()).unwrap();
    let (trace_b, digests_b) = drive(&mut with_empty, &mut envs_b, 25);

    assert_eq!(digests_a, digests_b);
    assert_eq!(trace_a, trace_b);
}

/// Determinism pin 2: the same seed + plan replays bit-for-bit,
/// including mid-run supervisor churn from probabilistic panics.
#[test]
fn same_seed_and_plan_replays_bit_for_bit() {
    let plan = InfraChaosPlan::new()
        .tenant_panic(Window::new(3, 12), TenantSel::All, 0.35)
        .reload_corrupt(Window::always(), TenantSel::One(2), 0.5);
    let cfg = FleetConfig {
        supervisor: SupervisorConfig {
            backoff_base: 1,
            backoff_max: 4,
            probation_steps: 2,
            ..Default::default()
        },
        seed: 42,
        ..Default::default()
    };
    let run = || {
        let (mut envs, specs) = three_tenants(ServeConfig::default());
        let mut fleet = FleetRuntime::new(cfg, specs);
        fleet.set_infra_chaos(plan.clone()).unwrap();
        drive(&mut fleet, &mut envs, 35)
    };
    let (trace_a, digests_a) = run();
    let (trace_b, digests_b) = run();
    assert_eq!(digests_a, digests_b);
    assert_eq!(trace_a, trace_b);

    // A different seed must actually change the run (the plan has
    // probabilistic faults, so identical output would mean the seed
    // is dead).
    let other = {
        let (mut envs, specs) = three_tenants(ServeConfig::default());
        let mut fleet = FleetRuntime::new(FleetConfig { seed: 43, ..cfg }, specs);
        fleet.set_infra_chaos(plan).unwrap();
        drive(&mut fleet, &mut envs, 35)
    };
    assert_ne!(digests_a, other.1, "seed drives the fault draws");
}

/// A single injected panic quarantines the tenant; the checkpoint
/// reload brings it back through Recovering to Healthy, with recovery
/// latency and breaker-close accounting.
#[test]
fn quarantined_tenant_reloads_and_recovers() {
    let dir = std::env::temp_dir().join(format!("fleet-recover-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("tenant.ckpt");
    let env = tiny_env(FlowPattern::One, 2000);
    let model = PairUpLight::new(&env, small_cfg());
    model.save_checkpoint(&ckpt, 0).unwrap();

    let mut fleet = FleetRuntime::new(
        FleetConfig {
            supervisor: SupervisorConfig {
                backoff_base: 1,
                backoff_max: 2,
                probation_steps: 2,
                ..Default::default()
            },
            seed: 9,
            ..Default::default()
        },
        vec![TenantSpec {
            name: "solo".into(),
            snapshot: model.policy_snapshot(),
            serve_cfg: ServeConfig::default(),
            checkpoint: Some(ckpt.clone()),
            sla: Default::default(),
        }],
    );
    // Exactly one panic, at step 0.
    fleet
        .set_infra_chaos(InfraChaosPlan::new().tenant_panic(
            Window::new(0, 1),
            TenantSel::One(0),
            1.0,
        ))
        .unwrap();

    let mut envs = vec![env];
    drive(&mut fleet, &mut envs, 20);

    assert_eq!(fleet.tenant_state(0), TenantState::Healthy);
    let stats = fleet.tenant_stats(0);
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.quarantines, 1);
    assert_eq!(stats.reload_attempts, 1);
    assert_eq!(stats.reload_failures, 0);
    assert_eq!(stats.recoveries, 1);
    assert!(stats.recovery_ticks_total > 0, "recovery latency recorded");
    assert_eq!(stats.breaker_closes, 1);
    assert!(stats.standby_steps > 0 && stats.standby_steps < stats.steps);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite regression: a tenant whose checkpoint is permanently
/// corrupt burns its whole retry budget, then stays quarantined
/// forever — no hot-looping, no further reload attempts.
#[test]
fn permanently_corrupt_checkpoint_stays_quarantined_after_budget() {
    let dir = std::env::temp_dir().join(format!("fleet-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("garbage.ckpt");
    std::fs::write(&ckpt, b"not a checkpoint at all").unwrap();

    let env = tiny_env(FlowPattern::One, 2000);
    let model = PairUpLight::new(&env, small_cfg());
    let budget = 2u32;
    let mut fleet = FleetRuntime::new(
        FleetConfig {
            supervisor: SupervisorConfig {
                backoff_base: 1,
                backoff_max: 2,
                retry_budget: budget,
                ..Default::default()
            },
            seed: 1,
            ..Default::default()
        },
        vec![TenantSpec {
            name: "doomed".into(),
            snapshot: model.policy_snapshot(),
            serve_cfg: ServeConfig::default(),
            checkpoint: Some(ckpt.clone()),
            sla: Default::default(),
        }],
    );
    fleet
        .set_infra_chaos(InfraChaosPlan::new().tenant_panic(
            Window::new(0, 1),
            TenantSel::One(0),
            1.0,
        ))
        .unwrap();

    let mut envs = vec![env];
    drive(&mut fleet, &mut envs, 30);
    assert_eq!(fleet.tenant_state(0), TenantState::Quarantined);
    let attempts_after_burnout = fleet.tenant_stats(0).reload_attempts;
    assert_eq!(attempts_after_burnout, u64::from(budget));
    assert_eq!(fleet.tenant_stats(0).reload_failures, u64::from(budget));

    // Another long stretch must not add a single attempt.
    drive(&mut fleet, &mut envs, 30);
    assert_eq!(
        fleet.tenant_stats(0).reload_attempts,
        attempts_after_burnout
    );
    assert_eq!(fleet.tenant_state(0), TenantState::Quarantined);
    std::fs::remove_dir_all(&dir).ok();
}

/// Latency spikes against a deadline trip the breaker (Degraded, not
/// Quarantined); once the spike window passes, backoff + probation
/// close it again.
#[test]
fn deadline_spikes_trip_and_then_close_the_breaker() {
    let env = tiny_env(FlowPattern::One, 2000);
    let model = PairUpLight::new(&env, small_cfg());
    let mut fleet = FleetRuntime::new(
        FleetConfig {
            supervisor: SupervisorConfig {
                window: 4,
                min_samples: 2,
                trip_fault_rate: 0.5,
                backoff_base: 2,
                backoff_max: 4,
                probation_steps: 2,
                ..Default::default()
            },
            seed: 3,
            ..Default::default()
        },
        vec![TenantSpec {
            name: "spiky".into(),
            snapshot: model.policy_snapshot(),
            serve_cfg: ServeConfig {
                deadline: Some(Duration::from_millis(50)),
                ..Default::default()
            },
            checkpoint: None,
            sla: Default::default(),
        }],
    );
    // 200 ms stalls against a 50 ms deadline: every spiked step is a
    // deterministic overrun.
    fleet
        .set_infra_chaos(InfraChaosPlan::new().latency_spike(
            Window::new(0, 4),
            TenantSel::One(0),
            200_000,
            1.0,
        ))
        .unwrap();

    let mut envs = vec![env];
    drive(&mut fleet, &mut envs, 25);
    let stats = fleet.tenant_stats(0);
    assert!(stats.breaker_trips >= 1, "spikes tripped the breaker");
    assert!(stats.soft_faults >= 2);
    assert_eq!(stats.panics, 0, "overruns degrade, never quarantine");
    assert_eq!(stats.quarantines, 0);
    assert_eq!(fleet.tenant_state(0), TenantState::Healthy);
    assert!(stats.breaker_closes >= 1, "probation closed it again");
}

/// Fleet-level input validation is typed, and an out-of-range chaos
/// target is rejected before the plan is installed.
#[test]
fn fleet_errors_are_typed() {
    let (mut envs, specs) = three_tenants(ServeConfig::default());
    let mut fleet = FleetRuntime::new(FleetConfig::default(), specs);
    let obs0 = envs[0].reset(1);
    let short: Vec<&[_]> = vec![obs0.as_slice()];
    match fleet.step(&short) {
        Err(ServeError::TenantCountMismatch {
            got: 1,
            expected: 3,
        }) => {}
        other => panic!("expected TenantCountMismatch, got {other:?}"),
    }
    let bad = InfraChaosPlan::new().tenant_panic(Window::always(), TenantSel::One(7), 1.0);
    match fleet.set_infra_chaos(bad) {
        Err(ServeError::InvalidInfraChaos {
            tenant: 7,
            tenants: 3,
        }) => {}
        other => panic!("expected InvalidInfraChaos, got {other:?}"),
    }
}

/// Acceptance pin: reload storms cost **zero degraded steps**. The
/// double-buffered swap serves the old policy while each staged
/// checkpoint validates, so a storm of hot reloads degrades no step,
/// counts its swaps, and never touches the breaker — operator-induced
/// churn is not a tenant fault.
#[test]
fn reload_storm_swaps_with_zero_degraded_steps() {
    let dir = std::env::temp_dir().join(format!("fleet-storm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("storm.ckpt");
    let env = tiny_env(FlowPattern::One, 2000);
    let model = PairUpLight::new(&env, small_cfg());
    model.save_checkpoint(&ckpt, 0).unwrap();
    let mut fleet = FleetRuntime::new(
        FleetConfig {
            seed: 2,
            ..Default::default()
        },
        vec![TenantSpec {
            name: "stormy".into(),
            snapshot: model.policy_snapshot(),
            serve_cfg: ServeConfig::default(),
            checkpoint: Some(ckpt.clone()),
            sla: Default::default(),
        }],
    );
    fleet
        .set_infra_chaos(InfraChaosPlan::new().reload_storm(
            Window::new(0, 20),
            TenantSel::One(0),
            4,
        ))
        .unwrap();
    let mut envs = vec![env];
    drive(&mut fleet, &mut envs, 25);
    let telemetry = fleet.tenant_telemetry(0);
    assert_eq!(telemetry.degraded_steps(), 0, "the storm was invisible");
    let stats = fleet.tenant_stats(0);
    assert!(
        stats.hot_swaps >= 4,
        "the storm's reloads were swapped live"
    );
    assert_eq!(stats.breaker_trips, 0);
    assert_eq!(fleet.tenant_state(0), TenantState::Healthy);
    std::fs::remove_dir_all(&dir).ok();
}
