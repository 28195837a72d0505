//! `train_grid6`: `table2`'s PPO training loop at EXPERIMENTS.md scale.
//!
//! 6×6 grid, 200 m spacing, Flow Pattern 1, 2700-s episodes, one
//! serial env; round `i` calls `train_episode(env, seed + i)`. An op is
//! one round. The traced run splits a round from outside: it first
//! calls `collect_rollout` with the round's seed (pure in the learner,
//! so it repeats the round's own rollout), replays the recorded actions
//! on the env, runs GAE on a copy of the trajectory, and then times the
//! round itself.

use std::time::Instant;

use pairuplight::{PairUpLight, PairUpLightConfig, TrainEpisode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tsc_rl::{RolloutBuffer, Trajectory};
use tsc_sim::scenario::grid::{Grid, GridConfig};
use tsc_sim::scenario::patterns::{grid_scenario, FlowPattern, PatternConfig};
use tsc_sim::{EnvConfig, EpisodeStats, SimConfig, SimError, TscEnv};

use crate::stats::{fast_median, median};
use crate::{micros, run_for, timed, Args, BoxError, EndToEnd, OpTimes, Report};

/// Grid side: the paper's main 6×6 experiment.
pub const GRID: usize = 6;
/// Training episode horizon, seconds.
pub const HORIZON_S: u32 = 2700;
/// Episodes in the EXPERIMENTS.md schedule (sets the ε decay).
const EPISODES: usize = 60;

/// The Pattern-1 training env of `table2`.
pub fn build_env(seed: u64) -> Result<TscEnv, SimError> {
    let grid = Grid::build(GridConfig {
        cols: GRID,
        rows: GRID,
        spacing: 200.0,
    })?;
    let scenario = grid_scenario(&grid, FlowPattern::One, &PatternConfig::default())?;
    TscEnv::new(
        scenario,
        SimConfig::default(),
        EnvConfig {
            decision_interval: 5,
            episode_horizon: HORIZON_S,
        },
        seed,
    )
}

/// `tsc_bench::models`' PairUpLight configuration at the
/// `ExperimentScale` defaults: hidden and LSTM width 32, bandwidth 1,
/// parameter sharing, 2 PPO epochs.
pub fn config(seed: u64) -> PairUpLightConfig {
    let mut cfg = PairUpLightConfig {
        hidden: 32,
        lstm_hidden: 32,
        bandwidth: 1,
        parameter_sharing: true,
        seed,
        eps_decay_episodes: EPISODES / 2,
        ..PairUpLightConfig::default()
    };
    cfg.ppo.epochs = 2;
    cfg
}

/// Agent-transitions one round collects: every agent acts once per
/// decision step.
pub fn transitions_per_round(env: &TscEnv) -> usize {
    env.num_agents() * env.steps_per_episode()
}

/// Replays a trajectory's recorded actions on `env` from `seed` and
/// rebuilds the episode statistics the way `collect_rollout` does.
pub fn replay(env: &mut TscEnv, traj: &Trajectory, seed: u64) -> Result<EpisodeStats, SimError> {
    env.reset(seed);
    let steps = traj.agents.first().map_or(0, Vec::len);
    let mut actions = vec![0usize; traj.num_agents()];
    let mut total_reward = 0.0f64;
    for t in 0..steps {
        for (a, slot) in actions.iter_mut().enumerate() {
            *slot = traj.agents[a][t].action;
        }
        let step = env.step(&actions)?;
        for r in &step.rewards {
            total_reward += r;
        }
    }
    Ok(EpisodeStats {
        steps,
        total_reward,
        avg_waiting_time: env.sim().metrics().avg_waiting_time(),
        avg_travel_time: env.sim().avg_travel_time(),
        finished: env.sim().metrics().finished(),
        spawned: env.sim().metrics().spawned(),
    })
}

/// Bit-exact equality of two episode summaries.
pub fn same_stats(a: &EpisodeStats, b: &EpisodeStats) -> bool {
    a.steps == b.steps
        && a.finished == b.finished
        && a.spawned == b.spawned
        && a.total_reward.to_bits() == b.total_reward.to_bits()
        && a.avg_waiting_time.to_bits() == b.avg_waiting_time.to_bits()
        && a.avg_travel_time.to_bits() == b.avg_travel_time.to_bits()
}

fn params_digest(model: &PairUpLight) -> u64 {
    crate::fnv1a_words(
        model
            .parameter_vector()
            .iter()
            .map(|x| u64::from(x.to_bits())),
    )
}

/// Output checks on one round.
fn check_round(
    report: &mut Report,
    round: u64,
    ep: &TrainEpisode,
    transitions: usize,
    expected: usize,
) {
    let losses = [ep.policy_loss, ep.value_loss, ep.entropy, ep.grad_norm];
    report.check(losses.iter().all(|l| l.is_finite()), || {
        format!("round {round}: non-finite loss {losses:?}")
    });
    report.check(transitions == expected, || {
        format!("round {round}: {transitions} transitions, expected {expected}")
    });
}

/// The round sequence: round `i` trains on seed `base_seed + i`.
struct Rounds {
    base_seed: u64,
    next: u64,
    expected: usize,
}

impl Rounds {
    fn seed(&self) -> u64 {
        self.base_seed + self.next
    }

    /// Times one `train_episode` (the op) and checks its output.
    fn run(
        &mut self,
        model: &mut PairUpLight,
        env: &mut TscEnv,
        report: &mut Report,
    ) -> (Result<TrainEpisode, SimError>, f64) {
        let round = self.next;
        let t0 = Instant::now();
        let res = model.train_episode(env, self.seed());
        let us = micros(t0.elapsed());
        match &res {
            Ok(ep) => check_round(
                report,
                round,
                ep,
                ep.stats.steps * env.num_agents(),
                self.expected,
            ),
            Err(e) => report.check(false, || format!("round {round}: {e}")),
        }
        self.next += 1;
        (res, us)
    }
}

/// Per-round parts of a traced round, microseconds.
struct Parts {
    op: f64,
    rollout: f64,
    env: f64,
    gae: f64,
}

/// Set-up times of the run, µs per part, plus the whole in seconds.
#[derive(Default)]
struct SetupTimes {
    total_s: Vec<f64>,
    env_us: Vec<f64>,
    model_us: Vec<f64>,
}

impl SetupTimes {
    /// One set-up repetition: grid, env and `PairUpLight::new`.
    fn build(&mut self, seed: u64) -> Result<(TscEnv, PairUpLight), BoxError> {
        let (env_us, model_us) = (&mut self.env_us, &mut self.model_us);
        timed(&mut self.total_s, || {
            let t0 = Instant::now();
            let env = build_env(seed)?;
            env_us.push(micros(t0.elapsed()));
            let t1 = Instant::now();
            let model = PairUpLight::new(&env, config(seed));
            model_us.push(micros(t1.elapsed()));
            Ok((env, model))
        })
    }
}

pub fn run(args: &Args) -> Result<Report, BoxError> {
    let mut report = Report::default();
    let mut setup = SetupTimes::default();
    let (mut env, mut model) = setup.build(args.seed)?;
    let expected = transitions_per_round(&env);
    report.note(
        "scenario_fingerprint",
        format!("{:016x}", env.scenario_fingerprint()),
    );
    report.note("agents", env.num_agents());
    report.note("transitions_per_round", expected);

    // Warm-up round: first-touch allocation of the trajectory and tape.
    let mut rounds = Rounds {
        base_seed: args.seed,
        next: 0,
        expected,
    };
    rounds.run(&mut model, &mut env, &mut report).0?;
    report.note(
        "params_digest_after_round_0",
        format!("{:016x}", params_digest(&model)),
    );

    let measure_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut ops = OpTimes::new(1, 1);
    let mut failed = 0u64;
    run_for(measure_s, || {
        let (res, us) = rounds.run(&mut model, &mut env, &mut report);
        ops.record(us, expected as f64);
        failed += u64::from(res.is_err());
        // Set-up repeats between rounds, so its samples span the run.
        setup.build(args.seed)?;
        Ok(())
    })?;
    report.attempted = ops.ops();
    report.failed = failed;

    if !args.trace {
        report.metrics = EndToEnd {
            setup_s: &setup.total_s,
            ops: &ops,
            ok_ratio: 1.0 - failed as f64 / ops.ops() as f64,
            policy_ratio: 1.0,
            ratio_samples: ops.ops(),
        }
        .metrics();
        report.note(
            "params_digest_final",
            format!(
                "{:016x} after {} rounds",
                params_digest(&model),
                rounds.next
            ),
        );
        return Ok(report);
    }

    // Traced half: split each round from outside.
    let ppo = model.config().ppo;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut parts: Vec<Parts> = Vec::new();
    let mut minibatches = 0usize;
    let mut transitions = 0usize;
    run_for(args.seconds / 2.0, || {
        let (round, seed) = (rounds.next, rounds.seed());
        let t0 = Instant::now();
        let rollout = model.collect_rollout(&mut env, seed)?;
        let rollout_us = micros(t0.elapsed());

        let t0 = Instant::now();
        let replayed = replay(&mut env, &rollout.trajectory, seed)?;
        let env_us = micros(t0.elapsed());
        report.check(same_stats(&replayed, &rollout.stats), || {
            format!(
                "round {round}: env replay diverged from the rollout: {replayed:?} vs {:?}",
                rollout.stats
            )
        });

        let traj = rollout.trajectory.clone();
        let t0 = Instant::now();
        let (mut buffer, last_values) = RolloutBuffer::from_trajectories(vec![traj]);
        buffer.compute_targets(&last_values, ppo.gamma, ppo.lambda);
        let gae_us = micros(t0.elapsed());
        minibatches = buffer.minibatches(ppo.minibatch, &mut rng).len() * ppo.epochs;
        transitions = rollout.trajectory.total();

        let (res, op_us) = rounds.run(&mut model, &mut env, &mut report);
        let ep = res?;
        report.check(same_stats(&ep.stats, &rollout.stats), || {
            format!("round {round}: the round's rollout differs from the traced rollout")
        });
        parts.push(Parts {
            op: op_us,
            rollout: rollout_us,
            env: env_us,
            gae: gae_us,
        });
        Ok(())
    })?;

    let n = parts.len() as f64;
    let mean = |f: fn(&Parts) -> f64| parts.iter().map(f).sum::<f64>() / n;
    let (op, rollout, env_us, gae) = (
        mean(|p| p.op),
        mean(|p| p.rollout),
        mean(|p| p.env),
        mean(|p| p.gae),
    );
    let update = op - rollout;
    let infer = rollout - env_us;
    // Self-check: the outside-in split must be a split — every derived
    // part positive, the sub-parts inside their parents.
    report.check(update > 0.0 && infer > 0.0 && gae < update, || {
        format!("traced parts do not split the round: op {op:.0} rollout {rollout:.0} env {env_us:.0} gae {gae:.0} us")
    });
    let traced: Vec<f64> = parts.iter().map(|p| p.op).collect();
    let samples = parts.len() as u64;
    report.metric("op_us", op, "us", samples);
    report.metric("core.rollout_us", rollout, "us", samples);
    report.metric("sim.env_us", env_us, "us", samples);
    report.metric("core.rollout_infer_us", infer, "us", samples);
    report.metric("core.update_us", update, "us", samples);
    report.metric("rl.gae_us", gae, "us", samples);
    report.metric(
        "sim.new_us",
        fast_median(&setup.env_us),
        "us",
        setup.env_us.len() as u64,
    );
    report.metric(
        "core.model_new_us",
        fast_median(&setup.model_us),
        "us",
        setup.model_us.len() as u64,
    );
    report.metric("core.transitions", transitions as f64, "count", samples);
    report.metric("rl.minibatches", minibatches as f64, "count", samples);
    report.metric(
        "trace.overhead_us",
        median(&traced) - ops.median_all(),
        "us",
        samples,
    );
    report.attempted += samples;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_is_13896_agent_transitions() {
        let env = build_env(7).unwrap();
        assert_eq!(env.num_agents(), 36);
        assert_eq!(env.steps_per_episode(), 386);
        assert_eq!(transitions_per_round(&env), 13_896);
    }

    #[test]
    fn replay_reproduces_a_rollout_bit_for_bit() {
        // A 2×2 grid keeps the test quick; the mechanism is the same.
        let grid = Grid::build(GridConfig {
            cols: 2,
            rows: 2,
            spacing: 150.0,
        })
        .unwrap();
        let scenario = grid_scenario(&grid, FlowPattern::One, &PatternConfig::default()).unwrap();
        let mut env = TscEnv::new(
            scenario,
            SimConfig::default(),
            EnvConfig {
                decision_interval: 5,
                episode_horizon: 140,
            },
            3,
        )
        .unwrap();
        let mut cfg = config(3);
        cfg.hidden = 8;
        cfg.lstm_hidden = 8;
        let model = PairUpLight::new(&env, cfg);
        let rollout = model.collect_rollout(&mut env, 5).unwrap();
        let replayed = replay(&mut env, &rollout.trajectory, 5).unwrap();
        assert!(
            same_stats(&replayed, &rollout.stats),
            "{replayed:?} vs {:?}",
            rollout.stats
        );
        assert_eq!(rollout.trajectory.total(), transitions_per_round(&env));
        let other = replay(&mut env, &rollout.trajectory, 6).unwrap();
        assert!(!same_stats(&other, &rollout.stats));
    }
}
