//! Deterministic open-loop load generator for the serving fleet:
//! offered load on the virtual step clock, swept across three regimes,
//! with per-SLA-class latency percentiles, shed rate, and goodput.
//!
//! Tenants cycle through three SLA classes — gold (priority 2, tight
//! deadline, never shed), silver (priority 1), bronze (priority 0,
//! sheddable) — behind `FleetRuntime` admission control. The offered
//! load is a `LoadPlan`: a pure function of `(seed, step, tenant)`,
//! so every regime is open-loop and replays bit-for-bit.
//!
//! 1. **clean** — offered load comfortably under capacity; admission
//!    must be invisible (zero brownouts, zero shed).
//! 2. **overload** — a surge pushes demand well past capacity; the
//!    brownout ladder engages in priority order. Runs twice and
//!    asserts a bit-identical replay digest. Pins gold-class p99 and
//!    every class's shed-rate cap.
//! 3. **infra-chaos** — the surge plus injected panics, latency
//!    spikes, and a reload storm. Asserts the process never aborts and
//!    that no tenant's runtime degrades a step for any reason — the
//!    double-buffered snapshot swap keeps reloads off the ladder.
//!
//! Usage: `loadgen [--json] [--smoke] [--scenario <name-or-path>]
//! [steps]` (default steps: 400; `--smoke` shrinks the fleet and run
//! for CI; `--json` also writes `BENCH_loadgen.json` at the repo
//! root). With `--scenario` every tenant serves the compiled world.

use std::panic;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pairuplight::{PairUpLight, PairUpLightConfig};
use tsc_bench::cli::{exit_on_error, BenchArgs};
use tsc_bench::report::Json;
use tsc_bench::world::resolve_scenario;
use tsc_obs::Histogram;
use tsc_scenario::CompiledScenario;
use tsc_serve::{
    AdmissionConfig, FleetConfig, FleetRuntime, InfraChaosPlan, LoadPlan, ServeConfig, SlaClass,
    SupervisorConfig, TenantSel, TenantSpec, TenantState,
};
use tsc_sim::scenario::grid::{Grid, GridConfig};
use tsc_sim::scenario::patterns::{flows, FlowPattern, PatternConfig};
use tsc_sim::{EnvConfig, SimConfig, TscEnv, Window};

const SEED: u64 = 42;

/// Pinned p99 budget for the gold class under overload, in
/// microseconds. Gold never sheds and admission keeps it at the front
/// of the ladder, so its step latency must stay policy-shaped even
/// when the fleet is saturated.
const GOLD_P99_BUDGET_US: f64 = 50_000.0;

/// The three SLA classes tenants cycle through (tenant `i` gets class
/// `i % 3`).
const CLASSES: [(&str, SlaClass); 3] = [
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

fn main() {
    let args = BenchArgs::parse();
    let steps = args.pos_or(0, if args.smoke { 120usize } else { 400 });
    install_quiet_hook();
    exit_on_error("loadgen bench", run(steps, &args));
}

/// Silences the default panic report for *injected* tenant panics —
/// they are caught at the tenant boundary and counted.
fn install_quiet_hook() {
    let prev = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected tenant panic"))
            || info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected tenant panic"));
        if !injected {
            prev(info);
        }
    }));
}

struct TenantSetup {
    name: String,
    class: usize,
    env: TscEnv,
    model: PairUpLight,
    checkpoint: PathBuf,
}

/// A heterogeneous fleet: alternating 2×2 / 3×3 grids, SLA classes
/// cycling gold/silver/bronze, every tenant with a valid checkpoint
/// (the reload storm stages from it). With a compiled world, every
/// tenant serves that world instead.
fn build_tenants(
    n: usize,
    world: Option<&CompiledScenario>,
) -> Result<Vec<TenantSetup>, Box<dyn std::error::Error>> {
    let patterns = FlowPattern::ALL;
    let mut out = Vec::new();
    for i in 0..n {
        let env_cfg = EnvConfig {
            decision_interval: 5,
            episode_horizon: 1_000_000,
        };
        let size = if i % 2 == 0 { 2 } else { 3 };
        let class = i % CLASSES.len();
        let env = match world {
            Some(compiled) => compiled.env(SimConfig::default(), env_cfg, SEED)?,
            None => {
                let grid = Grid::build(GridConfig {
                    cols: size,
                    rows: size,
                    spacing: 150.0,
                })?;
                let f = flows(
                    &grid,
                    patterns[i % patterns.len()],
                    &PatternConfig::default(),
                )?;
                TscEnv::new(
                    grid.scenario("loadgen-bench", f)?,
                    SimConfig::default(),
                    env_cfg,
                    SEED,
                )?
            }
        };
        let model = PairUpLight::new(
            &env,
            PairUpLightConfig {
                hidden: 16,
                lstm_hidden: 16,
                ..Default::default()
            },
        );
        let checkpoint = std::env::temp_dir().join(format!("tsc_loadgen_bench_{i}.ckpt"));
        model.save_checkpoint(&checkpoint, SEED)?;
        out.push(TenantSetup {
            name: format!("tenant-{i}-{}", CLASSES[class].0),
            class,
            env,
            model,
            checkpoint,
        });
    }
    Ok(out)
}

fn specs_for(tenants: &[TenantSetup], serve_cfg: ServeConfig) -> Vec<TenantSpec> {
    tenants
        .iter()
        .map(|t| TenantSpec {
            name: t.name.clone(),
            snapshot: t.model.policy_snapshot(),
            serve_cfg,
            checkpoint: Some(t.checkpoint.clone()),
            sla: CLASSES[t.class].1,
        })
        .collect()
}

fn fleet_config(capacity: u64) -> FleetConfig {
    FleetConfig {
        supervisor: SupervisorConfig {
            backoff_base: 1,
            backoff_max: 2,
            ..Default::default()
        },
        seed: SEED,
        admission: Some(AdmissionConfig { capacity }),
        ..Default::default()
    }
}

/// Per-SLA-class aggregates over one regime.
struct ClassStats {
    latency: Histogram,
    offered: u64,
    shed: u64,
    /// Offered requests answered by a policy-quality step within the
    /// class deadline.
    good: u64,
}

struct RegimeOutcome {
    digest: u64,
    decisions_per_sec: f64,
    classes: Vec<ClassStats>,
    /// Runtime-degraded steps summed over tenants (any reason).
    degraded_steps: u64,
    hot_swaps: u64,
    final_states: Vec<TenantState>,
}

impl Default for ClassStats {
    fn default() -> Self {
        ClassStats {
            latency: Histogram::new(),
            offered: 0,
            shed: 0,
            good: 0,
        }
    }
}

/// Drives `fleet` open-loop under `plan` for `steps`, folding the step
/// digest and per-class latency/shed/goodput accounting.
fn run_regime(
    fleet: &mut FleetRuntime,
    tenants: &mut [TenantSetup],
    plan: &LoadPlan,
    steps: usize,
) -> Result<RegimeOutcome, Box<dyn std::error::Error>> {
    let mut obs: Vec<_> = tenants
        .iter_mut()
        .enumerate()
        .map(|(i, t)| t.env.reset(100 + i as u64))
        .collect();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut serve_time = Duration::ZERO;
    let mut decisions: u64 = 0;
    let mut classes: Vec<ClassStats> = (0..CLASSES.len()).map(|_| ClassStats::default()).collect();
    for step in 0..steps {
        let offered = plan.offered_all(SEED, step as u64, tenants.len());
        let views: Vec<&[_]> = obs.iter().map(|o| o.as_slice()).collect();
        let t0 = Instant::now();
        let out = fleet.step_with_load(&views, &offered)?;
        serve_time += t0.elapsed();
        digest = (digest ^ out.digest()).wrapping_mul(0x0000_0100_0000_01b3);
        for (i, (ts, tenant)) in out.tenants.iter().zip(tenants.iter_mut()).enumerate() {
            decisions += ts.actions.len() as u64;
            let (_, sla) = CLASSES[tenant.class];
            let stats = &mut classes[tenant.class];
            stats.latency.record(ts.latency);
            stats.offered += offered[i];
            if ts.level.runs_policy() && ts.latency <= Duration::from_micros(sla.deadline_us) {
                stats.good += offered[i];
            }
            if ts.level == tsc_serve::ServiceLevel::Shed {
                stats.shed += offered[i];
            }
            let env_step = tenant.env.step(&ts.actions)?;
            obs[i] = if env_step.done {
                tenant.env.reset(200 + i as u64)
            } else {
                env_step.obs
            };
        }
    }
    let mut degraded_steps = 0;
    let mut hot_swaps = 0;
    let mut final_states = Vec::new();
    for t in 0..tenants.len() {
        degraded_steps += fleet.tenant_telemetry(t).degraded_steps();
        hot_swaps += fleet.tenant_stats(t).hot_swaps;
        final_states.push(fleet.tenant_state(t));
    }
    Ok(RegimeOutcome {
        digest,
        decisions_per_sec: decisions as f64 / serve_time.as_secs_f64().max(1e-9),
        classes,
        degraded_steps,
        hot_swaps,
        final_states,
    })
}

fn print_regime(regime: &str, out: &RegimeOutcome) {
    println!(
        "\n[{regime}] aggregate {:.0} decisions/s, replay digest {:016x}",
        out.decisions_per_sec, out.digest
    );
    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "class", "p50 us", "p95 us", "p99 us", "shed", "goodput", "offered"
    );
    for (c, stats) in out.classes.iter().enumerate() {
        println!(
            "{:<8} {:>9.1} {:>9.1} {:>9.1} {:>8.1}% {:>8.1}% {:>10}",
            CLASSES[c].0,
            stats.latency.percentile_us(0.50),
            stats.latency.percentile_us(0.95),
            stats.latency.percentile_us(0.99),
            stats.shed as f64 / stats.offered.max(1) as f64 * 100.0,
            stats.good as f64 / stats.offered.max(1) as f64 * 100.0,
            stats.offered,
        );
    }
}

fn regime_json(regime: &str, out: &RegimeOutcome) -> Json {
    let classes = out
        .classes
        .iter()
        .enumerate()
        .map(|(c, stats)| {
            let (name, sla) = CLASSES[c];
            Json::obj([
                ("class", Json::str(name)),
                ("priority", Json::num(f64::from(sla.priority))),
                ("deadline_us", Json::num(sla.deadline_us as f64)),
                ("max_shed_rate", Json::num(sla.max_shed_rate)),
                ("p50_us", Json::num(stats.latency.percentile_us(0.50))),
                ("p95_us", Json::num(stats.latency.percentile_us(0.95))),
                ("p99_us", Json::num(stats.latency.percentile_us(0.99))),
                (
                    "shed_rate",
                    Json::num(stats.shed as f64 / stats.offered.max(1) as f64),
                ),
                (
                    "goodput",
                    Json::num(stats.good as f64 / stats.offered.max(1) as f64),
                ),
                ("offered", Json::num(stats.offered as f64)),
                ("shed", Json::num(stats.shed as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("regime", Json::str(regime)),
        ("decisions_per_sec", Json::num(out.decisions_per_sec)),
        ("replay_digest", Json::str(format!("{:016x}", out.digest))),
        ("classes", Json::Arr(classes)),
    ])
}

/// The overload surge: idle shoulders, then a sustained plateau at
/// several times the per-tenant clean load for the middle half of the
/// run.
fn surge_plan(steps: usize) -> LoadPlan {
    let s = steps as u32;
    LoadPlan::new()
        .phase(Window::new(0, s / 4), TenantSel::All, 2, 1)
        .phase(Window::new(s / 4, 3 * s / 4), TenantSel::All, 8, 4)
        .phase(Window::new(3 * s / 4, s), TenantSel::All, 2, 1)
}

/// Infra chaos on top of the surge: one tenant panics early but has a
/// valid checkpoint (full recovery cycle), everyone sees latency
/// spikes, the last tenant rides a reload storm.
fn infra_plan(n: usize) -> InfraChaosPlan {
    InfraChaosPlan::new()
        .tenant_panic(Window::new(0, 3), TenantSel::One(0), 1.0)
        .latency_spike(Window::always(), TenantSel::All, 400, 0.2)
        .reload_storm(Window::always(), TenantSel::One(n - 1), 10)
}

fn run(steps: usize, args: &BenchArgs) -> Result<(), Box<dyn std::error::Error>> {
    let n = if args.smoke { 3 } else { 6 };
    let world = resolve_scenario(args, SEED)?;
    let mut tenants = build_tenants(n, world.as_ref())?;
    let total_agents: u64 = tenants.iter().map(|t| t.env.num_agents() as u64).sum();
    // Capacity sized so the clean regime (offered ≤ 3 per tenant) fits
    // with headroom while the surge (offered 8–12) saturates it.
    let capacity = total_agents * 3 + 10;
    println!(
        "loadgen bench: {n} tenants, {total_agents} agents, capacity {capacity}, \
         {steps} steps per regime, seed {SEED}"
    );

    // Regime 1: clean. Offered load under capacity — admission must be
    // invisible: zero shed, zero browned-out steps, everyone healthy.
    let clean_plan = LoadPlan::new().phase(Window::new(0, steps as u32), TenantSel::All, 2, 1);
    let mut fleet = FleetRuntime::new(
        fleet_config(capacity),
        specs_for(&tenants, ServeConfig::default()),
    );
    let clean = run_regime(&mut fleet, &mut tenants, &clean_plan, steps)?;
    print_regime("clean", &clean);
    assert!(
        clean.classes.iter().all(|c| c.shed == 0),
        "clean regime must shed nothing"
    );
    assert!(
        clean
            .final_states
            .iter()
            .all(|&s| s == TenantState::Healthy),
        "clean regime must stay healthy"
    );
    for t in 0..n {
        let tel = fleet.tenant_telemetry(t);
        assert_eq!(
            tel.steps_at(tsc_serve::ServiceLevel::Full),
            steps as u64,
            "under-capacity admission must grant full service every step"
        );
    }

    // Regime 2: overload, twice — the second run must replay the first
    // bit-for-bit (open-loop load is a pure function of seed+step).
    let plan = surge_plan(steps);
    let mut fleet = FleetRuntime::new(
        fleet_config(capacity),
        specs_for(&tenants, ServeConfig::default()),
    );
    let overload = run_regime(&mut fleet, &mut tenants, &plan, steps)?;
    // The admission layer's hard guarantee is per step: a tenant's
    // shed-step count never exceeds its SLA cap over steps taken.
    for t in 0..n {
        let tel = fleet.tenant_telemetry(t);
        let cap = CLASSES[t % CLASSES.len()].1.max_shed_rate;
        let shed_steps = tel.steps_at(tsc_serve::ServiceLevel::Shed) as f64;
        assert!(
            shed_steps <= cap * (steps as f64 + 1.0) + 1e-9,
            "tenant {t} shed {shed_steps} steps, above its SLA cap {cap}"
        );
    }
    let mut fleet = FleetRuntime::new(
        fleet_config(capacity),
        specs_for(&tenants, ServeConfig::default()),
    );
    let replay = run_regime(&mut fleet, &mut tenants, &plan, steps)?;
    print_regime("overload", &overload);
    assert_eq!(
        overload.digest, replay.digest,
        "overload regime must replay bit-for-bit under the same seed and plan"
    );
    let gold_p99 = overload.classes[0].latency.percentile_us(0.99);
    assert!(
        gold_p99 <= GOLD_P99_BUDGET_US,
        "gold p99 under overload blew its pinned budget: {gold_p99:.1} us > {GOLD_P99_BUDGET_US} us"
    );
    assert_eq!(
        overload.classes[0].shed, 0,
        "the gold class must never shed (max_shed_rate 0)"
    );
    assert!(
        overload.classes.iter().skip(1).any(|c| c.shed > 0),
        "the surge must shed some sheddable-class load"
    );

    // Regime 3: infra chaos on top of the surge. The double-buffered
    // snapshot swap keeps the reload storm off the degradation ladder:
    // no runtime degrades a step, and the storm actually swapped.
    let mut fleet = FleetRuntime::new(
        fleet_config(capacity),
        specs_for(&tenants, ServeConfig::default()),
    );
    fleet.set_infra_chaos(infra_plan(n))?;
    let infra = run_regime(&mut fleet, &mut tenants, &plan, steps)?;
    print_regime("infra-chaos", &infra);
    assert_eq!(
        infra.degraded_steps, 0,
        "a staged reload must never degrade a step"
    );
    assert!(
        infra.hot_swaps >= 1,
        "the reload storm must complete at least one hot swap"
    );
    println!(
        "\noverload replay digest {:016x} reproduced; gold p99 {gold_p99:.1} us within \
         {GOLD_P99_BUDGET_US} us budget; {} hot swap(s), zero degraded steps under chaos; \
         no process abort",
        overload.digest, infra.hot_swaps
    );

    let report = Json::obj([
        ("bench", Json::str("loadgen")),
        ("tenants", Json::num(n as f64)),
        ("total_agents", Json::num(total_agents as f64)),
        ("capacity", Json::num(capacity as f64)),
        ("steps_per_regime", Json::num(steps as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("seed", Json::num(SEED as f64)),
        ("gold_p99_budget_us", Json::num(GOLD_P99_BUDGET_US)),
        ("gold_p99_overload_us", Json::num(gold_p99)),
        (
            "regimes",
            Json::Arr(vec![
                regime_json("clean", &clean),
                regime_json("overload", &overload),
                regime_json("infra_chaos", &infra),
            ]),
        ),
        ("overload_replay_digest_match", Json::Bool(true)),
        (
            "reload_degraded_steps",
            Json::num(infra.degraded_steps as f64),
        ),
        ("hot_swaps", Json::num(infra.hot_swaps as f64)),
    ]);
    args.write_report_if_json("BENCH_loadgen.json", &report)?;

    for t in &tenants {
        std::fs::remove_file(&t.checkpoint).ok();
    }
    Ok(())
}
