//! Cost of the observability layer on the training hot path.
//!
//! The span instrumentation threaded through rollout collection, GAE,
//! PPO, and the simulator must be near-free when disabled (one relaxed
//! atomic load per span site). This bench times the K=1 serial rollout
//! loop — one `collect_rollout` per round on one env — in two views:
//!
//! 1. **disabled** — spans compiled in, tracing off (the production
//!    default);
//! 2. **enabled** — tracing on, per-span timing collected.
//!
//! With `--json` it writes `BENCH_obs.json`: both rates, the
//! enabled-mode overhead, and the per-span self/total breakdown from
//! the enabled pass.
//!
//! The bench also runs the **flight-recorder gate**: the same
//! supervised fleet serving loop with recording off and on must fold
//! to identical decision digests (recording is observation-only, by
//! construction and by pin), and the recording overhead must stay
//! under the bar recorded in `BENCH_obs.json` — the number that
//! justifies leaving the recorder always-on in production.
//!
//! Usage: `obs_overhead [--json] [--smoke] [horizon_seconds] [rounds]`
//! (defaults: 300, 2).

use std::time::Instant;

use pairuplight::{PairUpLight, PairUpLightConfig};
use tsc_bench::cli::{exit_on_error, BenchArgs};
use tsc_bench::forensics::{FleetWorldSpec, TenantWorldSpec};
use tsc_bench::report::Json;
use tsc_serve::{FleetRuntime, FlightConfig, SupervisorConfig};
use tsc_sim::rollout::derive_rollout_seed;
use tsc_sim::scenario::grid::{Grid, GridConfig};
use tsc_sim::scenario::patterns::{self, FlowPattern, PatternConfig};
use tsc_sim::{EnvConfig, SimConfig, TscEnv};

/// Recording overhead acceptance bar (percent of fleet serving
/// throughput). Typical measurements sit near zero — a frame is a few
/// digests folded into a preallocated ring — but wall-clock gates in
/// CI need headroom for noise.
const RECORDER_OVERHEAD_BAR_PCT: f64 = 10.0;

fn main() {
    let args = BenchArgs::parse();
    let horizon: u32 = args.pos_or(0, 300);
    let rounds: u64 = args.pos_or(1, 2);
    exit_on_error("obs_overhead", run(horizon, rounds, &args));
}

/// One arm of the recorder gate: a fleet (recorder off or on) plus
/// its environments, advanced in chunks so both arms sample the same
/// wall-clock windows. Only the `FleetRuntime::step` calls are timed
/// — environment stepping is identical work on both arms and would
/// just dilute the signal.
struct GateArm {
    fleet: FleetRuntime,
    envs: Vec<TscEnv>,
    obs: Vec<Vec<tsc_sim::IntersectionObs>>,
    digest: u64,
    serve_ns: u64,
}

impl GateArm {
    fn new(
        spec: &FleetWorldSpec,
        flight: Option<FlightConfig>,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let (fleet, mut envs) = spec.build_with_flight(flight)?;
        let obs = envs
            .iter_mut()
            .zip(&spec.tenants)
            .map(|(env, t)| env.reset(t.env_seed))
            .collect();
        Ok(GateArm {
            fleet,
            envs,
            obs,
            digest: 0xcbf2_9ce4_8422_2325,
            serve_ns: 0,
        })
    }

    /// Advances `steps` fleet steps and returns the serve-time of
    /// this chunk alone (also folded into the arm's running total).
    fn advance(&mut self, steps: u64) -> Result<u64, Box<dyn std::error::Error>> {
        let mut chunk_ns = 0u64;
        for _ in 0..steps {
            let views: Vec<&[_]> = self.obs.iter().map(|o| o.as_slice()).collect();
            let t0 = Instant::now();
            let out = self.fleet.step(&views)?;
            chunk_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            for byte in out.digest().to_le_bytes() {
                self.digest ^= u64::from(byte);
                self.digest = self.digest.wrapping_mul(0x0000_0100_0000_01b3);
            }
            for (i, (t, env)) in out.tenants.iter().zip(self.envs.iter_mut()).enumerate() {
                self.obs[i] = env.step(&t.actions)?.obs;
            }
        }
        self.serve_ns += chunk_ns;
        Ok(chunk_ns)
    }
}

/// The flight-recorder gate: identical decision digests with the
/// recorder off and on, and recording overhead under the bar. The two
/// arms advance in alternating 25-step chunks, so frequency drift and
/// noisy neighbors hit both equally. Returns
/// `(off_steps_per_sec, on_steps_per_sec, overhead_pct)`.
fn recorder_gate(steps: u64) -> Result<(f64, f64, f64), Box<dyn std::error::Error>> {
    let spec = FleetWorldSpec {
        tenants: (0..3)
            .map(|i| TenantWorldSpec {
                name: format!("gate-{i}"),
                cols: 2,
                rows: 2,
                spacing: 150.0,
                pattern: (i * 2) % 5,
                hidden: 16,
                lstm_hidden: 16,
                model_seed: 500 + i as u64,
                env_seed: 900 + i as u64,
            })
            .collect(),
        decision_interval: 5,
        horizon: 1_000_000,
        fleet_seed: 7,
        supervisor: SupervisorConfig::default(),
        admission_capacity: None,
        flight_capacity: 256,
        flight_cooldown: 64,
        chaos: tsc_serve::InfraChaosPlan::new(),
        load: tsc_serve::LoadPlan::new(),
    };
    // Warm-up arm: first-touch page faults and lazy init don't count.
    GateArm::new(&spec, None)?.advance(25)?;

    let mut off = GateArm::new(&spec, None)?;
    let mut on = GateArm::new(&spec, Some(FlightConfig::default()))?;
    let chunk = 25;
    let mut done = 0;
    let mut off_chunks = Vec::new();
    let mut on_chunks = Vec::new();
    while done < steps {
        let n = chunk.min(steps - done);
        off_chunks.push((off.advance(n)?, n));
        on_chunks.push((on.advance(n)?, n));
        done += n;
    }
    if off.digest != on.digest {
        return Err("recorder-on fleet diverged from recorder-off (must be bit-identical)".into());
    }
    assert_eq!(
        on.fleet.flight_health().frames_recorded,
        steps * 3,
        "every tenant records one frame per step"
    );
    // A single scheduler stall inside one chunk would dominate raw
    // totals (the whole gate serves for mere milliseconds), so the
    // verdict comes from the MEDIAN per-chunk overhead — outlier
    // chunks cannot move it.
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let overhead_pct = median(
        off_chunks
            .iter()
            .zip(&on_chunks)
            .map(|(&(o, _), &(n, _))| (n as f64 - o as f64) / o as f64 * 100.0)
            .collect(),
    );
    let rate = |chunks: &[(u64, u64)]| {
        median(
            chunks
                .iter()
                .map(|&(ns, n)| n as f64 / (ns as f64 / 1e9))
                .collect(),
        )
    };
    Ok((rate(&off_chunks), rate(&on_chunks), overhead_pct))
}

/// One measurement pass: the K=1 serial rollout loop, one
/// `collect_rollout` per round on `env`.
fn measure(
    model: &PairUpLight,
    env: &mut TscEnv,
    rounds: u64,
) -> Result<f64, Box<dyn std::error::Error>> {
    let start = Instant::now();
    let mut steps_done: u64 = 0;
    for round in 0..rounds {
        let rollout = model.collect_rollout(env, derive_rollout_seed(0, round, 0))?;
        steps_done += rollout.stats.steps as u64;
    }
    Ok(steps_done as f64 / start.elapsed().as_secs_f64())
}

fn run(horizon: u32, rounds: u64, args: &BenchArgs) -> Result<(), Box<dyn std::error::Error>> {
    let grid = Grid::build(GridConfig::default())?;
    let scenario = patterns::grid_scenario(&grid, FlowPattern::One, &PatternConfig::default())?;
    let mut env = TscEnv::new(
        scenario,
        SimConfig::default(),
        EnvConfig {
            decision_interval: 5,
            episode_horizon: horizon,
        },
        0,
    )?;
    let cfg = PairUpLightConfig {
        hidden: 32,
        lstm_hidden: 32,
        ..Default::default()
    };
    let model = PairUpLight::new(&env, cfg);

    println!(
        "obs overhead: 6x6 grid, horizon {horizon}s, {} decision steps/episode, {rounds} round(s)",
        env.steps_per_episode()
    );

    // Warm-up pass so neither measured pass pays first-touch costs.
    tsc_obs::span::set_enabled(false);
    measure(&model, &mut env, 1)?;

    let disabled = measure(&model, &mut env, rounds)?;
    println!("spans disabled: {disabled:>10.0} env-steps/s");

    tsc_obs::span::reset();
    tsc_obs::span::set_enabled(true);
    let enabled = measure(&model, &mut env, rounds)?;
    tsc_obs::span::set_enabled(false);
    let spans = tsc_obs::span::report();
    println!("spans enabled:  {enabled:>10.0} env-steps/s");
    let enabled_overhead_pct = (disabled - enabled) / disabled * 100.0;
    println!("enabled-mode overhead vs disabled: {enabled_overhead_pct:.2}%");

    println!(
        "{:>22} {:>10} {:>14} {:>14}",
        "span", "count", "total", "self"
    );
    let mut span_rows = Vec::new();
    for (name, stat) in &spans {
        println!(
            "{name:>22} {:>10} {:>12.2}ms {:>12.2}ms",
            stat.count,
            stat.total_ns as f64 / 1e6,
            stat.self_ns as f64 / 1e6
        );
        span_rows.push(Json::obj([
            ("name", Json::str(*name)),
            ("count", Json::num(stat.count as f64)),
            ("total_ms", Json::num(stat.total_ns as f64 / 1e6)),
            ("self_ms", Json::num(stat.self_ns as f64 / 1e6)),
        ]));
    }

    let gate_steps: u64 = if args.smoke { 400 } else { 1000 };
    let (rec_off, rec_on, rec_pct) = recorder_gate(gate_steps)?;
    println!(
        "flight recorder gate ({gate_steps} fleet steps): off {rec_off:.0} steps/s, \
         on {rec_on:.0} steps/s, overhead {rec_pct:.2}% (bar: < {RECORDER_OVERHEAD_BAR_PCT}%), \
         digests identical"
    );
    if rec_pct >= RECORDER_OVERHEAD_BAR_PCT {
        return Err(format!(
            "flight-recorder overhead {rec_pct:.2}% exceeds the {RECORDER_OVERHEAD_BAR_PCT}% bar"
        )
        .into());
    }

    let report = Json::obj([
        ("bench", Json::str("obs_overhead")),
        ("grid", Json::str("6x6")),
        ("horizon_s", Json::num(f64::from(horizon))),
        ("rounds", Json::num(rounds as f64)),
        ("disabled_steps_per_sec", Json::num(disabled)),
        ("enabled_steps_per_sec", Json::num(enabled)),
        ("enabled_overhead_pct", Json::num(enabled_overhead_pct)),
        ("spans", Json::Arr(span_rows)),
        (
            "flight_recorder",
            Json::obj([
                ("fleet_steps", Json::num(gate_steps as f64)),
                ("off_steps_per_sec", Json::num(rec_off)),
                ("on_steps_per_sec", Json::num(rec_on)),
                ("overhead_pct", Json::num(rec_pct)),
                ("overhead_bar_pct", Json::num(RECORDER_OVERHEAD_BAR_PCT)),
                ("digests_identical", Json::Bool(true)),
            ]),
        ),
    ]);
    args.write_report_if_json("BENCH_obs.json", &report)?;
    Ok(())
}
