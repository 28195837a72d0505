//! `serve_clean` and `serve_overload`: the `loadgen` fleet.
//!
//! Six tenants on alternating 2×2 and 3×3 grids (Flow Patterns 1–5
//! cycling), SLA classes cycling gold, silver, bronze, hidden width 16,
//! admission capacity 3 × total agents + 10, flight recorder on with
//! its default ring. Offered load is open-loop on the virtual step
//! clock: 2 + jitter ≤ 1 per tenant per step (clean) or loadgen's
//! surge plateau, 8 + jitter ≤ 4, for the whole run (overload). The
//! benchmark is one closed-loop caller: an op is one
//! `FleetRuntime::step_with_load`; between ops it steps each tenant's
//! env with the returned actions, untimed.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pairuplight::{PairUpLight, PairUpLightConfig};
use tsc_serve::{
    AdmissionConfig, FleetConfig, FleetRuntime, FlightConfig, LoadPlan, ServeConfig, ServedBy,
    ServiceLevel, SlaClass, SupervisorConfig, TenantSel, TenantSpec, TenantStep,
};
use tsc_sim::scenario::grid::{Grid, GridConfig};
use tsc_sim::scenario::patterns::{grid_scenario, FlowPattern, PatternConfig};
use tsc_sim::{EnvConfig, IntersectionObs, SimConfig, SimError, TscEnv, Window};

use crate::stats::{fast_median, median};
use crate::{fnv1a_words, micros, run_for, timed, Args, BoxError, EndToEnd, OpTimes, Report};

/// Tenants in the fleet (loadgen's size).
pub const TENANTS: usize = 6;
/// Tenant env episode length, seconds.
const ENV_HORIZON_S: u32 = 3600;
/// Fleet steps per timing window (a few tens of milliseconds, short
/// enough to sit inside one host state).
const WINDOW_STEPS: u64 = 256;
/// Fleet steps between set-up repetitions (about a second).
const STEPS_PER_SETUP: u64 = 8192;
/// Untimed fleet steps before measurement.
const WARMUP_STEPS: u64 = 200;
/// The behaviour digest folds this many leading fleet steps, so runs
/// of different length still print comparable digests.
const DIGEST_STEPS: u64 = 2000;

/// The SLA classes tenants cycle through (tenant `i` gets class
/// `i % 3`), as in `loadgen`.
pub const CLASSES: [(&str, SlaClass); 3] = [
    (
        "gold",
        SlaClass {
            priority: 2,
            deadline_us: 50_000,
            max_shed_rate: 0.0,
        },
    ),
    (
        "silver",
        SlaClass {
            priority: 1,
            deadline_us: 100_000,
            max_shed_rate: 0.25,
        },
    ),
    (
        "bronze",
        SlaClass {
            priority: 0,
            deadline_us: 200_000,
            max_shed_rate: 0.9,
        },
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    Clean,
    Overload,
}

impl Regime {
    pub fn plan(self) -> LoadPlan {
        let (base, jitter) = match self {
            Regime::Clean => (2, 1),
            Regime::Overload => (8, 4),
        };
        LoadPlan::new().phase(Window::always(), TenantSel::All, base, jitter)
    }
}

fn model_config(seed: u64) -> PairUpLightConfig {
    PairUpLightConfig {
        hidden: 16,
        lstm_hidden: 16,
        seed,
        ..Default::default()
    }
}

/// Tenant `i`'s env: a 2×2 (even `i`) or 3×3 grid under Flow Pattern
/// `i mod 5`. Episodes last an hour and the harness starts a new one
/// when one ends, so a long run's memory stays flat.
pub fn tenant_env(i: usize, seed: u64) -> Result<TscEnv, SimError> {
    let size = if i.is_multiple_of(2) { 2 } else { 3 };
    let grid = Grid::build(GridConfig {
        cols: size,
        rows: size,
        spacing: 150.0,
    })?;
    let pattern = FlowPattern::ALL[i % FlowPattern::ALL.len()];
    TscEnv::new(
        grid_scenario(&grid, pattern, &PatternConfig::default())?,
        SimConfig::default(),
        EnvConfig {
            decision_interval: 5,
            episode_horizon: ENV_HORIZON_S,
        },
        seed,
    )
}

fn fleet_config(capacity: u64, seed: u64) -> FleetConfig {
    FleetConfig {
        supervisor: SupervisorConfig {
            backoff_base: 1,
            backoff_max: 2,
            ..Default::default()
        },
        seed,
        admission: Some(AdmissionConfig { capacity }),
        flight: Some(FlightConfig::default()),
        ..Default::default()
    }
}

/// Preparation (untimed): every tenant's env and a freshly initialised
/// policy checkpoint under `dir`.
fn prepare(dir: &Path, seed: u64) -> Result<(Vec<TscEnv>, Vec<PathBuf>), BoxError> {
    std::fs::create_dir_all(dir)?;
    let mut envs = Vec::new();
    let mut paths = Vec::new();
    for i in 0..TENANTS {
        let env = tenant_env(i, seed)?;
        let path = dir.join(format!("tenant-{i}.ckpt"));
        PairUpLight::new(&env, model_config(seed)).save_checkpoint(&path, seed)?;
        envs.push(env);
        paths.push(path);
    }
    Ok((envs, paths))
}

/// Set-up (timed): resume every tenant's checkpoint, then build the
/// fleet. Returns the fleet and the checkpoint-load time in µs.
fn build_fleet(
    envs: &[TscEnv],
    paths: &[PathBuf],
    seed: u64,
) -> Result<(FleetRuntime, f64, f64), BoxError> {
    let t0 = Instant::now();
    let mut specs = Vec::with_capacity(envs.len());
    for (i, (env, path)) in envs.iter().zip(paths).enumerate() {
        let (model, _) = PairUpLight::resume(env, model_config(seed), path)?;
        let class = i % CLASSES.len();
        specs.push(TenantSpec {
            name: format!("tenant-{i}-{}", CLASSES[class].0),
            snapshot: model.policy_snapshot(),
            serve_cfg: ServeConfig::default(),
            checkpoint: Some(path.clone()),
            sla: CLASSES[class].1,
        });
    }
    let load_us = micros(t0.elapsed());
    let total_agents: u64 = envs.iter().map(|e| e.num_agents() as u64).sum();
    let t0 = Instant::now();
    let fleet = FleetRuntime::new(fleet_config(3 * total_agents + 10, seed), specs);
    Ok((fleet, load_us, micros(t0.elapsed())))
}

/// Outside-in split of one traced fleet step, microseconds.
struct Parts {
    fleet: f64,
    runtime: f64,
    tenant_sum: f64,
    env: f64,
}

/// The harness's side of the closed loop: every tenant's env applies
/// its answer; a finished episode restarts on a seed derived from the
/// fleet step.
fn step_envs(
    envs: &mut [TscEnv],
    obs: &mut [Vec<IntersectionObs>],
    answers: &[TenantStep],
    step: u64,
) -> Result<(), SimError> {
    for (i, (env, ts)) in envs.iter_mut().zip(answers).enumerate() {
        let env_step = env.step(&ts.actions)?;
        obs[i] = if env_step.done {
            env.reset(step * TENANTS as u64 + i as u64)
        } else {
            env_step.obs
        };
    }
    Ok(())
}

fn runtime_ns(fleet: &FleetRuntime) -> u128 {
    (0..fleet.num_tenants())
        .map(|t| fleet.tenant_telemetry(t).latency_histogram().total_ns())
        .sum()
}

pub fn run(args: &Args, regime: Regime) -> Result<Report, BoxError> {
    let mut report = Report::default();
    let dir = args.workdir.join(format!("serve-{}", std::process::id()));
    let (mut envs, paths) = prepare(&dir, args.seed)?;
    let mut setup_s = Vec::new();
    let mut load_us = Vec::new();
    let mut new_us = Vec::new();
    // One set-up repetition: resume the checkpoints, build the fleet.
    let setup_envs = (0..TENANTS)
        .map(|i| tenant_env(i, args.seed))
        .collect::<Result<Vec<_>, _>>()?;
    let mut set_up = || {
        timed(&mut setup_s, || {
            let (fleet, load, new) = build_fleet(&setup_envs, &paths, args.seed)?;
            load_us.push(load);
            new_us.push(new);
            Ok(fleet)
        })
    };
    let mut fleet = set_up()?;

    let phases: Vec<Vec<usize>> = envs
        .iter()
        .map(|e| {
            e.scenario()
                .signal_plans
                .iter()
                .map(|p| p.num_phases())
                .collect()
        })
        .collect();
    let fingerprints = fnv1a_words(envs.iter().map(TscEnv::scenario_fingerprint));
    report.note(
        "scenario_fingerprints_digest",
        format!("{fingerprints:016x}"),
    );
    report.note("agents", phases.iter().map(Vec::len).sum::<usize>());

    let plan = regime.plan();
    let mut obs: Vec<Vec<IntersectionObs>> = envs
        .iter_mut()
        .enumerate()
        .map(|(i, e)| e.reset(100 + i as u64))
        .collect();
    let mut step: u64 = 0;
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut ops = OpTimes::new(WINDOW_STEPS, 1);
    let mut parts: Vec<Parts> = Vec::new();
    let mut traced_us = Vec::new();
    let mut tenant_steps = 0u64;
    let mut by_policy = 0u64;
    let mut shed = 0u64;
    let mut panicked = 0u64;
    let mut failed = 0u64;

    // One closed-loop iteration: a fleet step (timed; split from
    // outside when `traced`), then every tenant's env step.
    let mut iterate = |fleet: &mut FleetRuntime,
                       traced: bool,
                       timed: bool,
                       report: &mut Report|
     -> Result<(), BoxError> {
        let offered = plan.offered_all(args.seed, step, TENANTS);
        let views: Vec<&[IntersectionObs]> = obs.iter().map(Vec::as_slice).collect();
        let runtime_before = if traced { runtime_ns(fleet) } else { 0 };
        let t0 = Instant::now();
        let result = fleet.step_with_load(&views, &offered);
        let fleet_us = micros(t0.elapsed());
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                failed += 1;
                report.check(false, || format!("step {step}: {e}"));
                return Ok(());
            }
        };
        if step < DIGEST_STEPS {
            digest = (digest ^ out.digest()).wrapping_mul(0x0000_0100_0000_01b3);
        }
        for (i, ts) in out.tenants.iter().enumerate() {
            let class = i % CLASSES.len();
            if ts.level == ServiceLevel::Shed {
                report.check(class != 0, || {
                    format!("step {step}: gold tenant {i} was shed")
                });
            } else {
                let valid = ts.actions.len() == phases[i].len()
                    && ts.actions.iter().zip(&phases[i]).all(|(&a, &n)| a < n);
                report.check(valid, || {
                    format!("step {step}: tenant {i} answered {:?}", ts.actions)
                });
            }
            if regime == Regime::Clean {
                report.check(ts.level == ServiceLevel::Full, || {
                    format!("step {step}: tenant {i} at {:?} under clean load", ts.level)
                });
            }
            report.check(!ts.panicked, || format!("step {step}: tenant {i} panicked"));
            if timed {
                tenant_steps += 1;
                by_policy += u64::from(ts.served_by == ServedBy::Policy);
                shed += u64::from(ts.level == ServiceLevel::Shed);
                panicked += u64::from(ts.panicked);
            }
        }
        if timed && traced {
            let tenant_sum: Duration = out.tenants.iter().map(|t| t.latency).sum();
            let runtime = (runtime_ns(fleet) - runtime_before) as f64 / 1e3;
            let t0 = Instant::now();
            step_envs(&mut envs, &mut obs, &out.tenants, step)?;
            parts.push(Parts {
                fleet: fleet_us,
                runtime,
                tenant_sum: micros(tenant_sum),
                env: micros(t0.elapsed()),
            });
            traced_us.push(fleet_us);
        } else {
            step_envs(&mut envs, &mut obs, &out.tenants, step)?;
            if timed {
                let decisions: usize = out.tenants.iter().map(|t| t.actions.len()).sum();
                ops.record(fleet_us, decisions as f64);
            }
        }
        step += 1;
        Ok(())
    };

    for _ in 0..WARMUP_STEPS {
        iterate(&mut fleet, false, false, &mut report)?;
    }
    let measure_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut timed_steps = 0u64;
    run_for(measure_s, || {
        iterate(&mut fleet, false, true, &mut report)?;
        // Set-up repeats through the run, so its samples span it.
        timed_steps += 1;
        if timed_steps.is_multiple_of(STEPS_PER_SETUP) {
            set_up()?;
        }
        Ok(())
    })?;
    if args.trace {
        run_for(args.seconds / 2.0, || {
            iterate(&mut fleet, true, true, &mut report)
        })?;
    }
    std::fs::remove_dir_all(&dir).ok();

    // Whole-run guarantees from the fleet's own telemetry.
    let fleet_steps = fleet.steps();
    let mut levels = [0u64; ServiceLevel::COUNT];
    let mut soft_faults = 0u64;
    for t in 0..TENANTS {
        let tel = fleet.tenant_telemetry(t);
        for (sum, n) in levels.iter_mut().zip(tel.level_steps()) {
            *sum += n;
        }
        let stats = fleet.tenant_stats(t);
        soft_faults += stats.soft_faults;
        report.check(stats.panics == 0, || {
            format!("tenant {t}: {} panics", stats.panics)
        });
        let cap = CLASSES[t % CLASSES.len()].1.max_shed_rate;
        let shed_steps = tel.steps_at(ServiceLevel::Shed) as f64;
        report.check(
            shed_steps <= cap * (fleet_steps as f64 + 1.0) + 1e-9,
            || format!("tenant {t} shed {shed_steps} of {fleet_steps} steps, above its cap {cap}"),
        );
    }
    report.check(soft_faults == 0, || {
        format!("{soft_faults} typed policy errors")
    });
    report.note(
        "fleet_digest",
        format!(
            "{digest:016x} over the first {} steps",
            fleet_steps.min(DIGEST_STEPS)
        ),
    );
    report.note("fleet_steps", fleet_steps);

    report.attempted = ops.ops() + parts.len() as u64;
    report.failed = failed;
    if !args.trace {
        let bad = shed + panicked + soft_faults;
        report.metrics = EndToEnd {
            setup_s: &setup_s,
            ops: &ops,
            ok_ratio: 1.0 - bad as f64 / tenant_steps as f64,
            policy_ratio: by_policy as f64 / tenant_steps as f64,
            ratio_samples: tenant_steps,
        }
        .metrics();
        return Ok(report);
    }

    let n = parts.len() as f64;
    let mean = |f: fn(&Parts) -> f64| parts.iter().map(f).sum::<f64>() / n;
    let (fleet_us, runtime, tenant_sum, env_us) = (
        mean(|p| p.fleet),
        mean(|p| p.runtime),
        mean(|p| p.tenant_sum),
        mean(|p| p.env),
    );
    let standby = tenant_sum - runtime;
    let admission_flight = fleet_us - tenant_sum;
    // Self-check: runtime ⊂ tenant step ⊂ fleet step, so the three
    // parts are non-negative and add up to the fleet step.
    report.check(runtime > 0.0 && standby >= 0.0 && admission_flight >= 0.0, || {
        format!("traced parts do not split the step: fleet {fleet_us:.2} tenants {tenant_sum:.2} runtime {runtime:.2} us")
    });
    let per_step = |x: u64| x as f64 / fleet_steps as f64;
    let flight = fleet.flight_health();
    let traced_n = parts.len() as u64;
    report.metric("serve.fleet_us", fleet_us, "us", traced_n);
    report.metric("serve.runtime_us", runtime, "us", traced_n);
    report.metric("serve.standby_us", standby, "us", traced_n);
    report.metric(
        "serve.admission_flight_us",
        admission_flight,
        "us",
        traced_n,
    );
    report.metric("sim.env_us", env_us, "us", traced_n);
    report.metric(
        "core.ckpt_load_us",
        fast_median(&load_us),
        "us",
        load_us.len() as u64,
    );
    report.metric(
        "serve.fleet_new_us",
        fast_median(&new_us),
        "us",
        new_us.len() as u64,
    );
    for (level, name) in [
        (ServiceLevel::Full, "serve.level_full"),
        (ServiceLevel::Degraded, "serve.level_degraded"),
        (ServiceLevel::Standby, "serve.level_standby"),
        (ServiceLevel::Shed, "serve.level_shed"),
    ] {
        report.metric(name, per_step(levels[level.index()]), "count", fleet_steps);
    }
    report.metric(
        "obs.flight_frames",
        per_step(flight.frames_recorded),
        "count",
        fleet_steps,
    );
    report.metric(
        "obs.incidents",
        per_step(flight.incidents_dumped),
        "count",
        fleet_steps,
    );
    report.metric(
        "trace.overhead_us",
        median(&traced_us) - ops.median_all(),
        "us",
        traced_n,
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fleet_step_is_six_tenant_steps_over_39_agents() {
        let dir = std::env::temp_dir().join(format!("perfbench-serve-test-{}", std::process::id()));
        let (mut envs, paths) = prepare(&dir, 42).unwrap();
        let (mut fleet, _, _) = build_fleet(&envs, &paths, 42).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let obs: Vec<_> = envs.iter_mut().map(|e| e.reset(1)).collect();
        let views: Vec<&[IntersectionObs]> = obs.iter().map(Vec::as_slice).collect();
        let offered = Regime::Clean.plan().offered_all(42, 0, TENANTS);
        let out = fleet.step_with_load(&views, &offered).unwrap();
        assert_eq!(out.tenants.len(), 6);
        let agents: usize = out.tenants.iter().map(|t| t.actions.len()).sum();
        assert_eq!(agents, 4 + 9 + 4 + 9 + 4 + 9);
        assert!(out.tenants.iter().all(|t| t.level == ServiceLevel::Full));
    }

    #[test]
    fn overload_offers_past_capacity_and_clean_stays_under() {
        let agents = [4u64, 9, 4, 9, 4, 9];
        let capacity = 3 * agents.iter().sum::<u64>() + 10;
        for step in 0..50 {
            let demand = |r: Regime| -> u64 {
                let offered = r.plan().offered_all(42, step, TENANTS);
                offered.iter().zip(agents).map(|(k, a)| k * a).sum()
            };
            assert!(demand(Regime::Clean) <= capacity);
            assert!(demand(Regime::Overload) > capacity);
        }
    }
}
