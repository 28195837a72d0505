//! Tier-1 execution parity: a fixed checkpoint plus a fixed seed must
//! make the serving runtime (batched and per-agent) and the evaluation
//! controller (greedy and stochastic) produce **exactly** the action
//! sequence of a tape-built reference of the actor, step by step, over
//! full 200- and 60-decision episodes.
//!
//! The reference rebuilds every forward on an autograd tape from the
//! policy snapshot's public accessors, so it shares no inference code
//! with the `ActorStep` kernel the runtime and controller run.

use pairuplight::message::logistic;
use pairuplight::{PairUpLight, PairUpLightConfig, PairingMode, PolicySnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tsc_nn::{Graph, LstmState, Tensor};
use tsc_rl::distribution::Categorical;
use tsc_serve::{ServeConfig, ServeRuntime};
use tsc_sim::scenario::grid::{Grid, GridConfig};
use tsc_sim::scenario::patterns::{flows, FlowPattern, PatternConfig};
use tsc_sim::{Controller, EnvConfig, IntersectionObs, SimConfig, TscEnv};

fn tiny_env(horizon: u32) -> TscEnv {
    let grid = Grid::build(GridConfig {
        cols: 2,
        rows: 2,
        spacing: 150.0,
    })
    .unwrap();
    let f = flows(&grid, FlowPattern::Five, &PatternConfig::default()).unwrap();
    let scenario = grid.scenario("serve-parity", f).unwrap();
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
    let mut cfg = PairUpLightConfig {
        hidden: 16,
        lstm_hidden: 16,
        ..Default::default()
    };
    cfg.ppo.minibatch = 32;
    cfg.ppo.epochs = 2;
    cfg
}

/// A tape-built execution controller: one 1-row autograd forward per
/// agent per step, sharing no inference code with `ActorStep`.
struct TapeReference {
    policy: PolicySnapshot,
    stochastic: bool,
    states: Vec<LstmState>,
    messages: Vec<Vec<f32>>,
    rng: StdRng,
}

impl TapeReference {
    fn new(policy: PolicySnapshot, stochastic: bool) -> Self {
        let mut r = TapeReference {
            policy,
            stochastic,
            states: Vec::new(),
            messages: Vec::new(),
            rng: StdRng::seed_from_u64(0),
        };
        r.reset();
        r
    }
}

impl Controller for TapeReference {
    fn reset(&mut self) {
        let cfg = self.policy.config();
        let n = self.policy.num_agents();
        self.states = (0..n)
            .map(|_| LstmState::zeros(1, cfg.lstm_hidden))
            .collect();
        self.messages = vec![vec![0.0; cfg.bandwidth]; n];
        self.rng = StdRng::seed_from_u64(cfg.seed ^ 0xC0FFEE);
    }

    fn decide(&mut self, obs: &[IntersectionObs]) -> Vec<usize> {
        let cfg = *self.policy.config();
        let pairing = self.policy.pairing();
        let partners = match cfg.pairing {
            PairingMode::CongestedUpstream => pairing.partners(obs),
            PairingMode::SelfLoop => pairing.self_partners(),
            PairingMode::RandomUpstream => pairing.random_partners(&mut self.rng),
        };
        let mut actions = Vec::with_capacity(obs.len());
        let mut next_messages = self.messages.clone();
        for (a, ob) in obs.iter().enumerate() {
            let mut input = self.policy.encoder().encode_local(ob);
            input.extend_from_slice(&self.messages[partners[a]]);
            let (params, actor) = &self.policy.actors()[if self.policy.shared() { 0 } else { a }];
            let mut g = Graph::new();
            let (out, next) = actor.step(
                &mut g,
                params,
                Tensor::row_from_slice(&input),
                &self.states[a],
            );
            let probs = tsc_nn::softmax_rows(g.value(out.logits));
            let n = self.policy.phases_per_agent()[a];
            let mut masked: Vec<f32> = probs.row(0)[..n].to_vec();
            let sum: f32 = masked.iter().sum();
            for p in &mut masked {
                *p /= sum.max(1e-8);
            }
            let dist = Categorical::new(&masked);
            actions.push(if self.stochastic {
                dist.sample(&mut self.rng)
            } else {
                dist.argmax()
            });
            if let Some(m) = out.message {
                next_messages[a] = g.value(m).row(0).iter().map(|&x| logistic(x)).collect();
            }
            self.states[a] = next;
        }
        self.messages = next_messages;
        actions
    }
}

/// Drives `env` for a full episode, asserting at every step that every
/// controller in `under_test` picks the reference's actions. Returns
/// the number of decision steps taken.
fn assert_lockstep_parity(
    env: &mut TscEnv,
    reference: &mut TapeReference,
    under_test: &mut [&mut dyn Controller],
    seed: u64,
) -> usize {
    let mut obs = env.reset(seed);
    reference.reset();
    for c in under_test.iter_mut() {
        c.reset();
    }
    let mut steps = 0usize;
    loop {
        let want = reference.decide(&obs);
        for (i, c) in under_test.iter_mut().enumerate() {
            assert_eq!(
                c.decide(&obs),
                want,
                "controller {i} diverged at step {steps}"
            );
        }
        let r = env.step(&want).unwrap();
        obs = r.obs;
        steps += 1;
        if r.done {
            return steps;
        }
    }
}

/// Greedy: the serving runtime and the greedy controller pick the
/// reference's actions, and the runtime never falls back. Stochastic
/// (the default every evaluation uses): the controller samples the
/// reference's actions from the same seeded stream.
fn assert_execution_parity(
    model: &PairUpLight,
    serve: &mut ServeRuntime,
    horizon: u32,
    seed: u64,
) -> usize {
    let mut env = tiny_env(horizon);
    let mut reference = TapeReference::new(model.policy_snapshot(), false);
    let mut greedy = model.controller();
    greedy.set_greedy();
    let steps = assert_lockstep_parity(&mut env, &mut reference, &mut [serve, &mut greedy], seed);
    assert_eq!(serve.telemetry().steps(), steps as u64);
    assert_eq!(
        serve.telemetry().decisions(),
        (steps * env.num_agents()) as u64
    );
    assert_eq!(serve.telemetry().fallback_decisions(), 0);

    assert!(model.config().stochastic_execution, "the default samples");
    let mut reference = TapeReference::new(model.policy_snapshot(), true);
    let mut stochastic = model.controller();
    assert_eq!(
        assert_lockstep_parity(&mut env, &mut reference, &mut [&mut stochastic], seed),
        steps
    );
    steps
}

#[test]
fn batched_serving_matches_training_stack_over_200_steps() {
    let mut train_env = tiny_env(210);
    let mut model = PairUpLight::new(&train_env, small_cfg());
    model.train_episode(&mut train_env, 0).unwrap();
    let path = std::env::temp_dir().join("tsc_serve_parity_shared.ckpt");
    model.save_checkpoint(&path, 0).unwrap();

    let env = tiny_env(1400);
    assert_eq!(env.steps_per_episode(), 200);
    let mut serve =
        ServeRuntime::from_checkpoint(&env, small_cfg(), ServeConfig::default(), &path).unwrap();
    assert!(serve.policy().shared(), "2x2 default cfg shares parameters");
    assert_eq!(assert_execution_parity(&model, &mut serve, 1400, 42), 200);
    std::fs::remove_file(&path).ok();
}

#[test]
fn per_agent_serving_matches_training_stack_without_parameter_sharing() {
    let cfg = PairUpLightConfig {
        parameter_sharing: false,
        ..small_cfg()
    };
    let env = tiny_env(420);
    let model = PairUpLight::new(&env, cfg);
    let path = std::env::temp_dir().join("tsc_serve_parity_unshared.ckpt");
    model.save_checkpoint(&path, 0).unwrap();

    let mut serve =
        ServeRuntime::from_checkpoint(&env, cfg, ServeConfig::default(), &path).unwrap();
    assert!(!serve.policy().shared());
    assert_eq!(assert_execution_parity(&model, &mut serve, 420, 7), 60);
    std::fs::remove_file(&path).ok();
}

#[test]
fn agent_count_mismatch_is_a_typed_error() {
    let env = tiny_env(140);
    let model = PairUpLight::new(&env, small_cfg());
    let mut serve = ServeRuntime::new(model.policy_snapshot(), ServeConfig::default());
    let obs = env.clone().reset(0);
    match serve.serve_step(&obs[..1]) {
        Err(tsc_serve::ServeError::AgentCountMismatch { got, expected }) => {
            assert_eq!(got, 1);
            assert_eq!(expected, env.num_agents());
        }
        other => panic!("expected AgentCountMismatch, got {other:?}"),
    }
}
