//! `city_3k`: network-wide MaxPressure control at city scale.
//!
//! `city_spec(3000, 42)` compiled (55×55 = 3025 signals) drives the
//! event core through the preset's one-hour demand program. An op is
//! one 7-s decision step: `observe_all`, MaxPressure `decide` plus
//! `request_phase` for every signal, and seven `Simulation::step`s. A
//! pass is the whole hour (515 ops); runs time whole passes only, so
//! every run weighs the quiet and rush phases alike. The seed drives
//! the simulation's vehicle stream; the city itself is fixed.

use std::time::Instant;

use tsc_baselines::MaxPressureController;
use tsc_scenario::{city_spec, compile, CompiledScenario, DemandProgram, ScenarioSpec};
use tsc_sim::{Controller, NodeId, SimConfig, SimError, Simulation};

use crate::stats::{fast_median, median};
use crate::{fnv1a_words, micros, run_for, timed, Args, BoxError, EndToEnd, OpTimes, Report};

/// Yellow (2 s) + decision interval (5 s), matching the env default.
pub const SECONDS_PER_STEP: u32 = 7;
/// The city is fixed: `city_spec(3000, 42)`.
const CITY_SEED: u64 = 42;
/// Measured passes between set-up repetitions (one set-up is about a
/// second, so it repeats sparingly, spread over the run).
const PASSES_PER_SETUP: usize = 4;

pub fn spec() -> ScenarioSpec {
    city_spec(3000, CITY_SEED)
}

/// The end of the spec's last demand program, seconds: the horizon a
/// pass runs to.
pub fn horizon_s(spec: &ScenarioSpec) -> u32 {
    spec.demand
        .iter()
        .map(|d| match d {
            DemandProgram::Uniform { end, .. } => *end,
            _ => 0.0,
        })
        .fold(0.0, f64::max) as u32
}

/// Decision steps in one pass over `horizon` seconds.
pub fn decision_steps(horizon: u32) -> usize {
    horizon.div_ceil(SECONDS_PER_STEP) as usize
}

/// Per-op split of a traced op, microseconds.
#[derive(Default, Clone, Copy)]
struct Parts {
    op: f64,
    observe: f64,
    decide: f64,
    step: f64,
}

/// One pass's final counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PassEnd {
    steps: usize,
    spawned: usize,
    finished: usize,
    active: usize,
    backlog: usize,
}

struct City {
    compiled: CompiledScenario,
    agents: Vec<NodeId>,
    phases: Vec<usize>,
    horizon: u32,
}

impl City {
    /// Drives one pass. `on_op` receives each op's untraced wall time
    /// or, when `traced`, its split; the pass end is checked for vehicle
    /// conservation by the caller.
    fn pass(
        &self,
        sim: &mut Simulation,
        traced: bool,
        mut on_op: impl FnMut(Parts, usize),
    ) -> Result<PassEnd, SimError> {
        let mut controller = MaxPressureController::default();
        controller.reset();
        let mut steps = 0;
        while sim.time() < self.horizon {
            let t0 = Instant::now();
            let mut parts = Parts::default();
            if traced {
                // Freeing the observation belongs to the observe layer:
                // `observe_all` allocates it afresh every op.
                let obs = sim.observe_all();
                let t1 = Instant::now();
                self.decide(sim, &mut controller, &obs)?;
                let t2 = Instant::now();
                drop(obs);
                let t3 = Instant::now();
                for _ in 0..SECONDS_PER_STEP {
                    sim.step()?;
                }
                parts.observe = micros((t1 - t0) + (t3 - t2));
                parts.decide = micros(t2 - t1);
                parts.step = micros(t3.elapsed());
            } else {
                let obs = sim.observe_all();
                self.decide(sim, &mut controller, &obs)?;
                drop(obs);
                for _ in 0..SECONDS_PER_STEP {
                    sim.step()?;
                }
            }
            parts.op = micros(t0.elapsed());
            steps += 1;
            on_op(parts, sim.active_vehicles());
        }
        Ok(PassEnd {
            steps,
            spawned: sim.metrics().spawned(),
            finished: sim.metrics().finished(),
            active: sim.active_vehicles(),
            backlog: sim.backlog_vehicles(),
        })
    }

    fn decide(
        &self,
        sim: &mut Simulation,
        controller: &mut MaxPressureController,
        obs: &[tsc_sim::IntersectionObs],
    ) -> Result<(), SimError> {
        let actions = controller.decide(obs);
        for ((&node, &action), &phases) in self.agents.iter().zip(&actions).zip(&self.phases) {
            sim.request_phase(node, action % phases)?;
        }
        Ok(())
    }
}

pub fn run(args: &Args) -> Result<Report, BoxError> {
    let mut report = Report::default();
    let spec = spec();
    let mut setup_s = Vec::new();
    let mut compile_us = Vec::new();
    let mut new_us = Vec::new();
    // One set-up repetition: compile the spec, build the simulation.
    let mut set_up = || {
        timed(&mut setup_s, || {
            let t0 = Instant::now();
            let compiled = compile(&spec)?;
            let t1 = Instant::now();
            let sim = Simulation::new(&compiled.scenario, SimConfig::default(), args.seed)?;
            new_us.push(micros(t1.elapsed()));
            compile_us.push(micros(t1 - t0));
            Ok((compiled, sim))
        })
    };
    let (compiled, sim) = set_up()?;
    let city = City {
        agents: sim.signalized(),
        phases: compiled
            .scenario
            .signal_plans
            .iter()
            .map(|p| p.num_phases())
            .collect(),
        horizon: horizon_s(&spec),
        compiled,
    };
    report.check(sim.is_event_core(), || {
        "city_3k must run on the event core".into()
    });
    report.note("scenario_fingerprint", city.compiled.fingerprint_hex());
    report.note("signals", city.agents.len());
    report.note("horizon_s", city.horizon);
    let expected_steps = decision_steps(city.horizon);

    // Every pass replays the same hour, so op `k` of each pass shares a
    // position.
    let mut ops = OpTimes::new(1, expected_steps);
    let mut parts: Vec<Parts> = Vec::new();
    let mut active_sum = 0usize;
    let mut finished_sum = 0usize;
    let mut first_end: Option<PassEnd> = None;
    let mut run_pass = |sim: &mut Simulation,
                        traced: bool,
                        timed: bool,
                        report: &mut Report|
     -> Result<(), BoxError> {
        let end = city.pass(sim, traced, |p, active| {
            if timed && traced {
                parts.push(p);
                active_sum += active;
            } else if timed {
                ops.record(p.op, f64::from(SECONDS_PER_STEP));
            }
        })?;
        report.check(end.spawned == end.active + end.finished, || {
            format!(
                "conservation violated: spawned {} != active {} + finished {}",
                end.spawned, end.active, end.finished
            )
        });
        report.check(end.steps == expected_steps, || {
            format!(
                "pass took {} decision steps, expected {expected_steps}",
                end.steps
            )
        });
        match first_end {
            None => first_end = Some(end),
            Some(first) => report.check(first == end, || {
                format!("pass diverged from the first: {end:?} vs {first:?}")
            }),
        }
        if timed && traced {
            finished_sum += end.finished;
        }
        Ok(())
    };
    // Every pass starts from a copy of the set-up's simulation.
    let fresh = || sim.clone();

    run_pass(&mut fresh(), false, false, &mut report)?;
    let measure_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut passes = 0usize;
    run_for(measure_s, || {
        run_pass(&mut fresh(), false, true, &mut report)?;
        passes += 1;
        if passes.is_multiple_of(PASSES_PER_SETUP) {
            set_up()?;
        }
        Ok(())
    })?;
    if args.trace {
        run_for(args.seconds / 2.0, || {
            run_pass(&mut fresh(), true, true, &mut report)
        })?;
    }

    let end = first_end.expect("the warm-up pass ran");
    report.note(
        "pass_digest",
        format!(
            "{:016x} (spawned {} finished {} active {} backlog {})",
            fnv1a_words([
                city.compiled.fingerprint,
                end.spawned as u64,
                end.finished as u64,
                end.active as u64,
                end.backlog as u64
            ]),
            end.spawned,
            end.finished,
            end.active,
            end.backlog
        ),
    );
    report.attempted = ops.ops() + parts.len() as u64;
    if !args.trace {
        report.metrics = EndToEnd {
            setup_s: &setup_s,
            ops: &ops,
            ok_ratio: 1.0,
            policy_ratio: 1.0,
            ratio_samples: ops.ops() * city.agents.len() as u64,
        }
        .metrics();
        return Ok(report);
    }

    let n = parts.len() as f64;
    let mean = |f: fn(&Parts) -> f64| parts.iter().map(f).sum::<f64>() / n;
    let (op, observe, decide, step) = (
        mean(|p| p.op),
        mean(|p| p.observe),
        mean(|p| p.decide),
        mean(|p| p.step),
    );
    // Self-check: the three independently timed parts add up to the
    // op's own timer within 3%.
    let sum = observe + decide + step;
    report.check((sum - op).abs() <= 0.03 * op, || {
        format!("traced parts sum to {sum:.1} us, op timer read {op:.1} us")
    });
    let traced: Vec<f64> = parts.iter().map(|p| p.op).collect();
    let samples = parts.len() as u64;
    report.metric("op_us", op, "us", samples);
    report.metric("sim.observe_us", observe, "us", samples);
    report.metric("sim.step_us", step, "us", samples);
    report.metric("baselines.decide_us", decide, "us", samples);
    report.metric(
        "scenario.compile_us",
        fast_median(&compile_us),
        "us",
        compile_us.len() as u64,
    );
    report.metric(
        "sim.new_us",
        fast_median(&new_us),
        "us",
        new_us.len() as u64,
    );
    report.metric(
        "sim.vehicles_active",
        active_sum as f64 / n,
        "count",
        samples,
    );
    report.metric("sim.finished", finished_sum as f64 / n, "count", samples);
    report.metric(
        "trace.overhead_us",
        median(&traced) - ops.median_all(),
        "us",
        samples,
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_city_is_3025_signals_over_515_decision_steps() {
        let spec = spec();
        let tsc_scenario::TopologySpec::City { cols, rows, .. } = spec.topology else {
            panic!("city_spec builds a city topology");
        };
        assert_eq!(cols * rows, 3025);
        assert_eq!(horizon_s(&spec), 3600);
        assert_eq!(decision_steps(horizon_s(&spec)), 515);
    }
}
