//! Controller-side resilience under injected chaos: total message
//! loss must degrade cleanly to the warm-standby MaxPressure
//! controller (bounding the damage at MaxPressure's performance),
//! sensor-health fallback must engage on implausible readings, and
//! every fallback must be attributed to its cause in telemetry.

use std::time::Duration;

use pairuplight::{HealthConfig, PairUpLight, PairUpLightConfig};
use tsc_baselines::MaxPressureController;
use tsc_serve::{DegradeReason, ResilienceConfig, ServeConfig, ServeError, ServeRuntime};
use tsc_sim::chaos::AgentSel;
use tsc_sim::scenario::grid::{Grid, GridConfig};
use tsc_sim::scenario::patterns::{flows, FlowPattern, PatternConfig};
use tsc_sim::{ChaosPlan, Controller, EnvConfig, LinkSel, NodeSel, SimConfig, TscEnv, Window};

fn tiny_env(horizon: u32) -> TscEnv {
    let grid = Grid::build(GridConfig {
        cols: 2,
        rows: 2,
        spacing: 150.0,
    })
    .unwrap();
    let f = flows(&grid, FlowPattern::Five, &PatternConfig::default()).unwrap();
    let scenario = grid.scenario("serve-resilience", f).unwrap();
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

/// Tier-1: 100% message loss never errors or panics, every decision is
/// attributed to `CommsHealth`, and the served actions are *exactly*
/// the warm-standby MaxPressure actions — so travel time under a cut
/// cable is bounded by the MaxPressure baseline by construction.
#[test]
fn total_message_loss_degrades_to_exact_max_pressure() {
    let mut env = tiny_env(700);
    let model = PairUpLight::new(&env, small_cfg());
    let mut serve = ServeRuntime::new(
        model.policy_snapshot(),
        ServeConfig {
            fallback_min_hold: 2,
            resilience: ResilienceConfig {
                comms_fallback_after: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    serve
        .set_chaos(
            &ChaosPlan::default().message_drop(Window::always(), AgentSel::All, 1.0),
            0,
        )
        .unwrap();
    let mut mirror = MaxPressureController::new(2);
    mirror.reset();

    let mut obs = env.reset(7);
    for _ in 0..120 {
        let step = serve.serve_step(&obs).expect("no error under total loss");
        let want = mirror.decide(&obs);
        assert_eq!(step.actions, want, "fallback must equal MaxPressure");
        assert!(step.fell_back.iter().all(|&f| f));
        assert!(step
            .causes
            .iter()
            .all(|&c| c == Some(DegradeReason::CommsHealth)));
        assert_eq!(step.degraded, Some(DegradeReason::CommsHealth));
        let out = env.step(&step.actions).unwrap();
        if out.done {
            break;
        }
        obs = out.obs;
    }
    let t = serve.telemetry();
    assert!(t.steps() > 0);
    assert_eq!(
        t.fallbacks_for(DegradeReason::CommsHealth),
        t.fallback_decisions(),
        "every fallback is attributed to comms health"
    );
    assert_eq!(t.fallbacks_for(DegradeReason::DeadlineOverrun), 0);
}

/// All three fault surfaces at once for a whole episode and its
/// drain: sensor dropout and noise, command loss and an all-red freeze
/// in the simulator, total message loss on the serving side. No step
/// errors, and every fallback is a health fallback (sensor or comms),
/// never a deadline overrun.
#[test]
fn mixed_surface_chaos_episode_never_errors() {
    let h = 300;
    let plan = ChaosPlan::default()
        .sensor_dropout(Window::new(h / 4, h / 2), LinkSel::All, 1.0)
        .sensor_noise(Window::new(h / 2, 3 * h / 4), LinkSel::All, 0.5)
        .command_loss(Window::new(h / 3, 2 * h / 3), NodeSel::All, 1.0)
        .all_red(Window::new(h / 2, h / 2 + 10), NodeSel::All)
        .message_drop(Window::always(), AgentSel::All, 1.0);
    let mut env = tiny_env(h);
    let model = PairUpLight::new(&env, small_cfg());
    let mut serve = ServeRuntime::new(
        model.policy_snapshot(),
        ServeConfig {
            fallback_min_hold: 2,
            resilience: ResilienceConfig {
                health: Some(HealthConfig::default()),
                sensor_fallback_after: 2,
                comms_fallback_after: 2,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    env.set_chaos(plan.clone());
    serve.set_chaos(&plan, 42).unwrap();
    env.run_episode(&mut serve, 42)
        .expect("no error under mixed chaos");
    env.drain(&mut serve, 4 * h)
        .expect("no error while draining");
    let t = serve.telemetry();
    assert_eq!(t.fallbacks_for(DegradeReason::DeadlineOverrun), 0);
    assert_eq!(
        t.fallbacks_for(DegradeReason::SensorHealth) + t.fallbacks_for(DegradeReason::CommsHealth),
        t.fallback_decisions(),
        "every fallback is a sensor or comms health fallback"
    );
    assert!(t.fallbacks_for(DegradeReason::CommsHealth) > 0);
}

/// Partial message faults (delay, corruption) are absorbed by the
/// policy path: no fallback, no error, and a deterministic replay.
#[test]
fn delay_and_corruption_are_served_by_the_policy() {
    let plan = ChaosPlan::default()
        .message_delay(Window::new(5, 40), AgentSel::All, 2)
        .message_corrupt(Window::new(20, 60), AgentSel::All, 0.3);
    let run = || {
        let mut env = tiny_env(400);
        let model = PairUpLight::new(&env, small_cfg());
        let mut serve = ServeRuntime::new(model.policy_snapshot(), ServeConfig::default());
        serve.set_chaos(&plan, 9).unwrap();
        let mut obs = env.reset(3);
        let mut actions_trace = Vec::new();
        for _ in 0..60 {
            let step = serve.serve_step(&obs).unwrap();
            assert!(step.degraded.is_none(), "faults absorbed, not degraded");
            actions_trace.push(step.actions.clone());
            let out = env.step(&step.actions).unwrap();
            if out.done {
                break;
            }
            obs = out.obs;
        }
        actions_trace
    };
    assert_eq!(run(), run(), "chaos serving replays deterministically");
}

/// Sensor dropout in the simulator trips the observation-health
/// tracker: the affected agents fall back with `SensorHealth` cause.
#[test]
fn sensor_dropout_triggers_health_fallback() {
    let mut env = tiny_env(700);
    let model = PairUpLight::new(&env, small_cfg());
    let mut serve = ServeRuntime::new(
        model.policy_snapshot(),
        ServeConfig {
            resilience: ResilienceConfig {
                health: Some(HealthConfig {
                    suspect_drop: 1.0,
                    ..Default::default()
                }),
                sensor_fallback_after: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    // Build congestion for 300 s, then kill every detector.
    env.set_chaos(ChaosPlan::default().sensor_dropout(Window::new(300, 700), LinkSel::All, 1.0));
    let mut obs = env.reset(7);
    let mut saw_sensor_fallback = false;
    for _ in 0..120 {
        let step = serve.serve_step(&obs).expect("no error under dropout");
        if step.causes.contains(&Some(DegradeReason::SensorHealth)) {
            saw_sensor_fallback = true;
        }
        let out = env.step(&step.actions).unwrap();
        if out.done {
            break;
        }
        obs = out.obs;
    }
    assert!(
        saw_sensor_fallback,
        "zero-collapsed busy approaches must trip the health tracker"
    );
    assert!(serve.telemetry().fallbacks_for(DegradeReason::SensorHealth) > 0);
}

/// With resilience enabled but no faults anywhere, the resilient
/// runtime serves the same actions as a plain one — the resilience
/// layer is inert on healthy input.
#[test]
fn resilience_layer_is_inert_on_healthy_input() {
    let env = tiny_env(400);
    let model = PairUpLight::new(&env, small_cfg());
    let mut plain = ServeRuntime::new(model.policy_snapshot(), ServeConfig::default());
    let mut resilient = ServeRuntime::new(
        model.policy_snapshot(),
        ServeConfig {
            resilience: ResilienceConfig {
                health: Some(HealthConfig::default()),
                sensor_fallback_after: 3,
                comms_fallback_after: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let mut env_a = env.clone();
    let mut env_b = env;
    let mut obs_a = env_a.reset(11);
    let mut obs_b = env_b.reset(11);
    for _ in 0..60 {
        let sa = plain.serve_step(&obs_a).unwrap();
        let sb = resilient.serve_step(&obs_b).unwrap();
        assert_eq!(sa.actions, sb.actions);
        assert!(sb.degraded.is_none());
        let oa = env_a.step(&sa.actions).unwrap();
        let ob = env_b.step(&sb.actions).unwrap();
        if oa.done {
            break;
        }
        obs_a = oa.obs;
        obs_b = ob.obs;
    }
}

#[test]
fn chaos_plan_validation_rejects_out_of_range_agents() {
    let env = tiny_env(200);
    let model = PairUpLight::new(&env, small_cfg());
    let mut serve = ServeRuntime::new(model.policy_snapshot(), ServeConfig::default());
    let bad = ChaosPlan::default().message_drop(Window::always(), AgentSel::One(99), 1.0);
    match serve.set_chaos(&bad, 0) {
        Err(ServeError::InvalidChaos {
            agent: 99,
            agents: 4,
        }) => {}
        other => panic!("expected InvalidChaos, got {other:?}"),
    }
    // A valid plan still installs.
    let ok = ChaosPlan::default().message_drop(Window::always(), AgentSel::One(3), 1.0);
    serve.set_chaos(&ok, 0).unwrap();
}

/// Injected deadline overruns and comms fallback compose: the cause
/// telemetry separates slow-model decisions from cut-cable decisions.
#[test]
fn causes_separate_deadline_from_comms() {
    let mut env = tiny_env(700);
    let model = PairUpLight::new(&env, small_cfg());
    let mut serve = ServeRuntime::new(
        model.policy_snapshot(),
        ServeConfig {
            deadline: Some(Duration::from_millis(40)),
            resilience: ResilienceConfig {
                comms_fallback_after: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    // Messages drop only for the first 5 decision steps.
    serve
        .set_chaos(
            &ChaosPlan::default().message_drop(Window::new(0, 5), AgentSel::All, 1.0),
            0,
        )
        .unwrap();
    let mut obs = env.reset(7);
    for t in 0..10 {
        // One deliberately slow step after the comms window closes.
        serve.inject_delay(if t == 7 {
            Some(Duration::from_millis(80))
        } else {
            None
        });
        let step = serve.serve_step(&obs).unwrap();
        match t {
            0..=4 => assert_eq!(step.degraded, Some(DegradeReason::CommsHealth)),
            7 => assert_eq!(step.degraded, Some(DegradeReason::DeadlineOverrun)),
            _ => assert!(step.degraded.is_none()),
        }
        obs = env.step(&step.actions).unwrap().obs;
    }
    let n = env.num_agents() as u64;
    let t = serve.telemetry();
    assert_eq!(t.fallbacks_for(DegradeReason::CommsHealth), 5 * n);
    assert_eq!(t.fallbacks_for(DegradeReason::DeadlineOverrun), n);
}
