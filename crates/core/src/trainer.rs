//! The CTDE training loop of Algorithm 1 and the decentralized
//! execution controller.
//!
//! Centralized training: all agents' experience is gathered into one
//! rollout buffer; with parameter sharing (homogeneous grids) one
//! actor/critic pair is updated from everyone's data, otherwise
//! (Monaco) each agent owns its networks. Decentralized execution: the
//! trained [`PairUpLightController`] runs each intersection from local
//! observations plus the single incoming message.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tsc_nn::{Adam, Graph, LstmState, Params, Tensor};
use tsc_rl::buffer::{RolloutBuffer, Trajectory, Transition};
use tsc_rl::distribution::{Categorical, LinearSchedule};
use tsc_rl::ppo::{clipped_policy_loss, entropy_bonus, value_loss};
use tsc_rl::sentinel::{check_finite_params, check_update, UpdateStats};
use tsc_sim::rollout::{derive_rollout_seed, RolloutSet};
use tsc_sim::{Controller, EpisodeStats, IntersectionObs, SimError, TscEnv};

use crate::checkpoint::{Checkpoint, CheckpointManager};
use crate::config::{CriticMode, PairUpLightConfig};
use crate::error::TrainError;
use crate::fault::FaultPlan;
use crate::message::regularize_into;
use crate::model::{ActorNet, ActorStep, CriticBuffers, CriticNet};
use crate::obs::{ObsEncoder, ObsNorm};
use crate::pairing::PairingTable;
use crate::policy::{execution_action, PolicySnapshot};
use crate::runlog::{RunLogger, UpdateRecord};

/// One actor/critic pair with its optimizer state.
#[derive(Debug)]
struct NetBundle {
    params: Params,
    actor: ActorNet,
    critic: CriticNet,
    opt: Adam,
}

impl NetBundle {
    fn new(cfg: &PairUpLightConfig, obs_dim: usize, critic_dim: usize, rng: &mut StdRng) -> Self {
        let mut params = Params::new();
        let actor = ActorNet::new(
            &mut params,
            obs_dim,
            cfg.bandwidth,
            cfg.hidden,
            cfg.lstm_hidden,
            cfg.max_phases,
            rng,
        );
        let critic = CriticNet::new(&mut params, critic_dim, cfg.hidden, cfg.lstm_hidden, rng);
        let opt = Adam::new(&params, cfg.ppo.lr);
        NetBundle {
            params,
            actor,
            critic,
            opt,
        }
    }
}

/// An in-memory restore point: cloned weights and optimizer state plus
/// the counters that drive every derived seed. Taken before each
/// checkpointed round so the divergence sentinel can roll the round
/// back without touching the filesystem.
struct TrainerState {
    bundles: Vec<(Params, Adam)>,
    episodes_trained: usize,
    rounds_trained: u64,
}

/// Losses and diagnostics of one minibatch step, or their aggregate
/// over a PPO round (means, except `grad_norm` which takes the max).
#[derive(Debug, Clone, Copy, Default)]
struct RoundLosses {
    policy_loss: f32,
    value_loss: f32,
    entropy: f32,
    grad_norm: f32,
    approx_kl: f32,
    clip_fraction: f32,
}

/// Everything one environment replica produces in one collection
/// round: the on-policy trajectory (with bootstrap values) plus the
/// episode's diagnostics. Produced by [`PairUpLight::collect_rollout`]
/// against an immutable policy snapshot; consumed (in env-index order)
/// by the PPO update.
#[derive(Debug, Clone)]
pub struct Rollout {
    /// Per-agent transitions and bootstrap values.
    pub trajectory: Trajectory,
    /// Environment statistics of the collected episode.
    pub stats: EpisodeStats,
    /// Mean absolute regularized message value sent (0 when
    /// communication is disabled).
    pub mean_message: f32,
    /// Mean halted-vehicle queue per intersection per decision step
    /// (Eq. 6's queue term, averaged over the episode) — the traffic
    /// health signal for the observability stream.
    pub mean_queue: f64,
}

/// Per-episode training diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrainEpisode {
    /// Episode index (0-based).
    pub episode: usize,
    /// Environment statistics of the episode.
    pub stats: EpisodeStats,
    /// Exploration ε used.
    pub epsilon: f32,
    /// Mean absolute regularized message value sent this episode
    /// (0 when communication is disabled).
    pub mean_message: f32,
    /// Mean clipped-surrogate policy loss over the episode's updates.
    pub policy_loss: f32,
    /// Mean value loss (in critic-scale units) over the updates.
    pub value_loss: f32,
    /// Mean policy entropy over the updates.
    pub entropy: f32,
    /// Maximum pre-clip global gradient norm over the episode's
    /// minibatch updates — the divergence sentinel's early-warning
    /// statistic.
    pub grad_norm: f32,
    /// Mean approximate KL divergence `E[logπ_old − logπ_new]` over
    /// the round's minibatch updates (PPO's trust-region health
    /// signal; large values mean the policy moved too far).
    pub approx_kl: f32,
    /// Fraction of samples whose importance ratio hit the PPO clip
    /// range over the round's minibatch updates.
    pub clip_fraction: f32,
}

/// The PairUpLight learner (paper §V, Algorithm 1).
///
/// All randomness is derived, never free-running: exploration streams
/// come from the rollout seed, and the minibatch-shuffle RNG is a pure
/// function of `(cfg.seed, rounds_trained)`. That makes the counters
/// below the *complete* RNG state, which is what lets a checkpoint
/// (weights + Adam state + counters) resume training bit-for-bit
/// identically to an uninterrupted run without serializing any RNG.
#[derive(Debug)]
pub struct PairUpLight {
    cfg: PairUpLightConfig,
    encoder: ObsEncoder,
    pairing: PairingTable,
    bundles: Vec<NetBundle>,
    num_agents: usize,
    phases_per_agent: Vec<usize>,
    episodes_trained: usize,
    /// PPO update rounds completed over the model's lifetime (one round
    /// merges `num_envs` episodes).
    rounds_trained: u64,
    /// Injected faults for exercising the recovery machinery (empty in
    /// production). Behind a mutex so concurrent rollout workers can
    /// consume entries.
    faults: Mutex<FaultPlan>,
    /// Optional JSONL run logger (see [`RunLogger`]). Behind a mutex
    /// because retry events are emitted from `&self` collection paths;
    /// strictly out-of-band — it never feeds back into training state.
    logger: Mutex<Option<RunLogger>>,
}

impl PairUpLight {
    /// Creates a learner for the environment's scenario.
    pub fn new(env: &TscEnv, cfg: PairUpLightConfig) -> Self {
        let scenario = env.scenario();
        let agents = scenario.agents();
        let encoder = ObsEncoder::new(
            &scenario.network,
            &agents,
            cfg.max_phases,
            ObsNorm::default(),
        );
        let pairing = PairingTable::new(&scenario.network, &agents, &encoder);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let critic_dim = match cfg.critic_mode {
            CriticMode::Local => encoder.local_dim(),
            CriticMode::Centralized => encoder.critic_dim(),
        };
        let num_bundles = if cfg.parameter_sharing {
            1
        } else {
            agents.len()
        };
        let bundles = (0..num_bundles)
            .map(|_| NetBundle::new(&cfg, encoder.local_dim(), critic_dim, &mut rng))
            .collect();
        let phases_per_agent = scenario
            .signal_plans
            .iter()
            .map(|p| p.num_phases().min(cfg.max_phases))
            .collect();
        PairUpLight {
            cfg,
            encoder,
            pairing,
            bundles,
            num_agents: agents.len(),
            phases_per_agent,
            episodes_trained: 0,
            rounds_trained: 0,
            faults: Mutex::new(FaultPlan::new()),
            logger: Mutex::new(None),
        }
    }

    /// Attaches a JSONL run logger and immediately writes the manifest
    /// record (config fingerprint, seed, build info, model shape).
    /// Instrumentation is out-of-band: an instrumented run trains
    /// bit-identically to an uninstrumented one.
    pub fn attach_obs(&self, sink: tsc_obs::EventSink) {
        use tsc_obs::Json;
        let mut logger = RunLogger::from_sink(sink);
        logger.log_manifest(
            self.config_fingerprint(),
            self.cfg.seed,
            [
                ("num_agents".to_string(), Json::num(self.num_agents as f64)),
                (
                    "num_envs".to_string(),
                    Json::num(self.cfg.num_envs.max(1) as f64),
                ),
                (
                    "parameter_sharing".to_string(),
                    Json::Bool(self.cfg.parameter_sharing),
                ),
                (
                    "num_params".to_string(),
                    Json::num(self.num_parameters() as f64),
                ),
                (
                    "episodes_trained".to_string(),
                    Json::num(self.episodes_trained as f64),
                ),
                (
                    "rounds_trained".to_string(),
                    Json::num(self.rounds_trained as f64),
                ),
            ],
        );
        *self.logger.lock().expect("run logger lock") = Some(logger);
    }

    /// Detaches the run logger, writing its `summary` record, and
    /// returns the accumulated metrics registry. `None` when no logger
    /// was attached (or it was already finished).
    pub fn finish_obs(&self) -> Option<tsc_obs::MetricsRegistry> {
        self.logger
            .lock()
            .expect("run logger lock")
            .take()
            .map(RunLogger::finish)
    }

    /// Runs `f` against the attached run logger, if any.
    fn with_obs(&self, f: impl FnOnce(&mut RunLogger)) {
        if let Some(log) = self.logger.lock().expect("run logger lock").as_mut() {
            f(log);
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PairUpLightConfig {
        &self.cfg
    }

    /// Episodes trained so far.
    pub fn episodes_trained(&self) -> usize {
        self.episodes_trained
    }

    /// PPO update rounds completed so far (one round merges
    /// `cfg.num_envs` episodes).
    pub fn rounds_trained(&self) -> u64 {
        self.rounds_trained
    }

    /// Replaces the injected-fault schedule (test instrumentation; see
    /// [`FaultPlan`]). An empty plan — the default — injects nothing.
    pub fn inject_faults(&self, plan: FaultPlan) {
        *self.faults.lock().expect("fault plan lock") = plan;
    }

    /// Total trainable scalars across bundles.
    pub fn num_parameters(&self) -> usize {
        self.bundles.iter().map(|b| b.params.num_scalars()).sum()
    }

    /// The critic predicts *average-reward-scaled* returns
    /// `(1-γ)·R` so its targets stay in the clamped reward range
    /// regardless of γ; this factor converts back to return units for
    /// GAE. Without it the value loss dwarfs the policy loss under
    /// oversaturation and the clipped gradient erases the policy
    /// signal.
    fn value_scale(&self) -> f32 {
        1.0 / (1.0 - self.cfg.ppo.gamma).max(0.01)
    }

    fn epsilon(&self) -> f32 {
        LinearSchedule {
            start: self.cfg.eps_start,
            end: self.cfg.eps_end,
            decay_steps: self.cfg.eps_decay_episodes as u64,
        }
        .value(self.episodes_trained as u64)
    }

    fn critic_input(&self, all: &[IntersectionObs], agent: usize) -> Vec<f32> {
        match self.cfg.critic_mode {
            CriticMode::Local => self.encoder.encode_local(&all[agent]),
            CriticMode::Centralized => self.encoder.encode_critic(all, agent),
        }
    }

    /// Samples an action for `agent` from masked policy probabilities
    /// with ε-greedy exploration (Algorithm 1 line 13). Returns
    /// `(action, log_prob)`.
    fn sample_action(
        &self,
        probs: &[f32],
        agent: usize,
        epsilon: f32,
        rng: &mut StdRng,
    ) -> (usize, f32) {
        let n = self.phases_per_agent[agent];
        // Mask to the agent's valid phases and renormalize.
        let mut masked: Vec<f32> = probs[..n].to_vec();
        let sum: f32 = masked.iter().sum();
        if sum <= 0.0 {
            masked = vec![1.0 / n as f32; n];
        } else {
            for p in &mut masked {
                *p /= sum;
            }
        }
        let action = if rng.gen::<f32>() < epsilon {
            rng.gen_range(0..n)
        } else {
            Categorical::new(&masked).sample(rng)
        };
        (action, Categorical::new(&masked).log_prob(action))
    }

    /// Collects one full episode of on-policy experience against the
    /// *current* (frozen) policy — pure with respect to the learner:
    /// `&self` only, with all randomness (exploration, message noise,
    /// random pairing) drawn from a private RNG derived from `seed` and
    /// `cfg.seed`. This is what makes data-parallel collection sound:
    /// any number of workers can run it concurrently on independent
    /// env replicas and the result for a given `(policy, seed)` pair is
    /// always the same.
    ///
    /// # Errors
    ///
    /// Propagates environment failures.
    pub fn collect_rollout(&self, env: &mut TscEnv, seed: u64) -> Result<Rollout, SimError> {
        let _span = tsc_obs::span!("rollout.episode");
        let epsilon = self.epsilon();
        let n = self.num_agents;
        let local_dim = self.encoder.local_dim();
        let bw = self.cfg.bandwidth;
        // The policy stream is salted with `cfg.seed` so two learners
        // that differ only in their model seed also explore
        // differently on the same episode seed.
        let mut rng = StdRng::seed_from_u64(derive_rollout_seed(self.cfg.seed, seed, 0x5A17));
        let mut all_obs = env.reset(seed);
        // Inference scratch is local to the call (concurrent workers
        // share `&self`) and reused every step: the hot loop builds no
        // autograd tape and allocates only what the trajectory keeps.
        let mut actor = ActorStep::new(&self.bundles[0].actor, n, self.cfg.parameter_sharing);
        let critic_dim = self.bundles[0].critic.input_dim();
        let mut cx = Tensor::zeros(n, critic_dim);
        let mut cstate = LstmState::zeros(n, self.cfg.lstm_hidden);
        let mut cbuf = CriticBuffers::new();
        let mut values = vec![0.0f32; n];
        let mut messages: Vec<Vec<f32>> = vec![vec![0.0; bw]; n];
        let mut actions = vec![0usize; n];
        let mut traj = Trajectory::new(n);
        let mut total_reward = 0.0f64;
        let mut msg_abs_sum = 0.0f32;
        let mut msg_count = 0usize;
        let mut queue_sum = 0.0f64;
        let mut queue_steps = 0usize;

        loop {
            let infer = tsc_obs::span!("rollout.infer");
            let partners = match self.cfg.pairing {
                crate::config::PairingMode::CongestedUpstream => self.pairing.partners(&all_obs),
                crate::config::PairingMode::SelfLoop => self.pairing.self_partners(),
                crate::config::PairingMode::RandomUpstream => {
                    self.pairing.random_partners(&mut rng)
                }
            };
            // Inputs and pre-step recurrent state go into the
            // transitions; action, value and log-prob are filled after
            // the forward, reward and aux after env.step.
            let mut step_transitions: Vec<Transition> = (0..n)
                .map(|a| {
                    actor.set_input(a, &self.encoder, &all_obs[a], &messages[partners[a]]);
                    let critic_obs = self.critic_input(&all_obs, a);
                    cx.row_mut(a).copy_from_slice(&critic_obs);
                    let (obs, message_in) = actor.input(a).split_at(local_dim);
                    Transition {
                        obs: obs.to_vec(),
                        critic_obs,
                        action: 0,
                        reward: 0.0,
                        value: 0.0,
                        log_prob: 0.0,
                        actor_h: (
                            actor.state().h.row(a).to_vec(),
                            actor.state().c.row(a).to_vec(),
                        ),
                        critic_h: (cstate.h.row(a).to_vec(), cstate.c.row(a).to_vec()),
                        message_in: message_in.to_vec(),
                        aux: Vec::new(),
                    }
                })
                .collect();
            actor.run_all(|b| (&self.bundles[b].params, &self.bundles[b].actor));
            self.critic_values(&cx, &mut cstate, &mut cbuf, &mut values);
            // Per agent, in agent order: the trajectory pins fix the RNG
            // stream as each agent's action sample, then its message
            // noise. Every input row already holds its partner's
            // message, so the new messages overwrite `messages` in place.
            for (a, t) in step_transitions.iter_mut().enumerate() {
                let (action, log_prob) = self.sample_action(actor.probs(a), a, epsilon, &mut rng);
                actions[a] = action;
                t.action = action;
                t.log_prob = log_prob;
                t.value = values[a];
                if bw > 0 {
                    let m_hat = &mut messages[a];
                    regularize_into(actor.message(a), self.cfg.sigma, &mut rng, m_hat);
                    msg_abs_sum += m_hat.iter().map(|x| x.abs()).sum::<f32>();
                    msg_count += m_hat.len();
                }
            }
            drop(infer);
            let step = env.step(&actions)?;
            queue_sum += step
                .obs
                .iter()
                .map(IntersectionObs::total_halting)
                .sum::<f64>();
            queue_steps += 1;
            for (a, mut t) in step_transitions.into_iter().enumerate() {
                t.reward = ((step.rewards[a] as f32) * self.cfg.reward_scale)
                    .clamp(-self.cfg.reward_clip, 0.0);
                total_reward += step.rewards[a];
                t.aux = vec![self.encoder.message_target(&step.obs[a])];
                traj.push(a, t);
            }
            all_obs = step.obs;
            if step.done {
                break;
            }
        }

        // Bootstrap values V(s_{B+1}) (Algorithm 1 line 24).
        for a in 0..n {
            cx.row_mut(a)
                .copy_from_slice(&self.critic_input(&all_obs, a));
        }
        self.critic_values(&cx, &mut cstate, &mut cbuf, &mut traj.last_values);

        let stats = EpisodeStats {
            steps: traj.agents.first().map_or(0, Vec::len),
            total_reward,
            avg_waiting_time: env.sim().metrics().avg_waiting_time(),
            avg_travel_time: env.sim().avg_travel_time(),
            finished: env.sim().metrics().finished(),
            spawned: env.sim().metrics().spawned(),
        };
        Ok(Rollout {
            trajectory: traj,
            stats,
            mean_message: if msg_count > 0 {
                msg_abs_sum / msg_count as f32
            } else {
                0.0
            },
            mean_queue: if queue_steps > 0 {
                queue_sum / (queue_steps * n) as f64
            } else {
                0.0
            },
        })
    }

    /// Scaled critic values `V(s)` of every agent from the `N`-row
    /// input `x`, advancing the `N`-row recurrent `state`: one `N`-row
    /// [`CriticNet::infer`] under parameter sharing, else one 1-row
    /// forward per agent's bundle.
    fn critic_values(
        &self,
        x: &Tensor,
        state: &mut LstmState,
        buf: &mut CriticBuffers,
        values: &mut [f32],
    ) {
        let scale = self.value_scale();
        if self.cfg.parameter_sharing {
            let b = &self.bundles[0];
            b.critic.infer(&b.params, x, &state.h, &state.c, buf);
            state.h.copy_from(&buf.h);
            state.c.copy_from(&buf.c);
            for (a, v) in values.iter_mut().enumerate() {
                *v = buf.value.get(a, 0) * scale;
            }
            return;
        }
        for (a, (b, v)) in self.bundles.iter().zip(values).enumerate() {
            let row = |t: &Tensor| Tensor::row_from_slice(t.row(a));
            b.critic
                .infer(&b.params, &row(x), &row(&state.h), &row(&state.c), buf);
            state.h.row_mut(a).copy_from_slice(buf.h.row(0));
            state.c.row_mut(a).copy_from_slice(buf.c.row(0));
            *v = buf.value.get(0, 0) * scale;
        }
    }

    /// Collects one rollout per replica in `set`, seeding replica `e`
    /// with `seeds[e]`, and returns the rollouts **in env-index order**
    /// regardless of worker scheduling.
    ///
    /// With `parallel`, replicas are driven by scoped worker threads
    /// sharing the frozen policy read-only; each worker writes into its
    /// own pre-allocated slot, so no result ever moves between lanes
    /// and no floating-point value is accumulated across threads —
    /// the output is bit-identical to the serial path.
    ///
    /// # Errors
    ///
    /// Propagates the first (lowest env index) environment failure.
    ///
    /// # Panics
    ///
    /// Panics if `seeds.len() != set.len()`.
    fn collect_rollouts(
        &self,
        set: &mut RolloutSet,
        seeds: &[u64],
        parallel: bool,
    ) -> Result<Vec<Rollout>, SimError> {
        assert_eq!(seeds.len(), set.len(), "one seed per replica");
        let mut slots: Vec<Option<Result<Rollout, SimError>>> =
            (0..set.len()).map(|_| None).collect();
        if parallel && set.len() > 1 {
            let this = self;
            std::thread::scope(|scope| {
                for ((env, &seed), slot) in
                    set.envs_mut().iter_mut().zip(seeds).zip(slots.iter_mut())
                {
                    scope.spawn(move || {
                        *slot = Some(this.collect_rollout(env, seed));
                        // thread::scope waits for this closure, not for
                        // TLS destructors: fold span stats in now so a
                        // report taken right after the scope sees them.
                        tsc_obs::span::flush_thread();
                    });
                }
            });
        } else {
            for ((env, &seed), slot) in set.envs_mut().iter_mut().zip(seeds).zip(slots.iter_mut()) {
                *slot = Some(self.collect_rollout(env, seed));
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every worker fills its slot"))
            .collect()
    }

    /// Merges a round of rollouts (already in env-index order) into one
    /// multi-env batch, runs the PPO update, and returns one
    /// [`TrainEpisode`] record per rollout (sharing the round's losses).
    fn update_round(&mut self, rollouts: Vec<Rollout>) -> Vec<TrainEpisode> {
        let epsilon = self.epsilon();
        let round = self.rounds_trained;
        let episode_start = self.episodes_trained;
        let mut metas = Vec::with_capacity(rollouts.len());
        let mut trajs = Vec::with_capacity(rollouts.len());
        for r in rollouts {
            metas.push((r.stats, r.mean_message, r.mean_queue));
            trajs.push(r.trajectory);
        }
        let (mut buffer, last_values) = RolloutBuffer::from_trajectories(trajs);
        buffer.compute_targets(&last_values, self.cfg.ppo.gamma, self.cfg.ppo.lambda);
        let update_started = Instant::now();
        let losses = self.update(&buffer);
        let update_wall_ns = u64::try_from(update_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.rounds_trained += 1;
        // Out-of-band observability: aggregates over the round's
        // episodes, written after the update so a crash mid-update
        // never logs a round that didn't happen.
        self.with_obs(|log| {
            let k = metas.len().max(1) as f64;
            log.log_update(&UpdateRecord {
                round,
                episode_start,
                episodes: metas.len(),
                steps: metas.first().map_or(0, |(s, _, _)| s.steps),
                policy_loss: losses.policy_loss,
                value_loss: losses.value_loss,
                entropy: losses.entropy,
                grad_norm: losses.grad_norm,
                approx_kl: losses.approx_kl,
                clip_fraction: losses.clip_fraction,
                epsilon,
                mean_message: metas.iter().map(|(_, m, _)| m).sum::<f32>() / k as f32,
                mean_reward: metas.iter().map(|(s, _, _)| s.total_reward).sum::<f64>() / k,
                mean_queue: metas.iter().map(|(_, _, q)| q).sum::<f64>() / k,
                mean_wait_s: metas
                    .iter()
                    .map(|(s, _, _)| s.avg_waiting_time)
                    .sum::<f64>()
                    / k,
                mean_travel_s: metas.iter().map(|(s, _, _)| s.avg_travel_time).sum::<f64>() / k,
                update_wall_ns,
            });
        });
        metas
            .into_iter()
            .map(|(stats, mean_message, _)| {
                let ep = TrainEpisode {
                    episode: self.episodes_trained,
                    stats,
                    epsilon,
                    mean_message,
                    policy_loss: losses.policy_loss,
                    value_loss: losses.value_loss,
                    entropy: losses.entropy,
                    grad_norm: losses.grad_norm,
                    approx_kl: losses.approx_kl,
                    clip_fraction: losses.clip_fraction,
                };
                self.episodes_trained += 1;
                ep
            })
            .collect()
    }

    /// Runs one training episode (explore + update) and returns its
    /// diagnostics. Equivalent to a `num_envs = 1` collection round.
    ///
    /// # Errors
    ///
    /// Propagates environment failures.
    pub fn train_episode(&mut self, env: &mut TscEnv, seed: u64) -> Result<TrainEpisode, SimError> {
        let rollout = self.collect_rollout(env, seed)?;
        Ok(self.update_round(vec![rollout]).remove(0))
    }

    /// PPO update (Algorithm 1 line 29): K epochs over minibatches.
    /// Returns mean losses/diagnostics and max pre-clip gradient norm
    /// over minibatch updates.
    ///
    /// The minibatch-shuffle RNG is derived fresh from
    /// `(cfg.seed, rounds_trained)` every round rather than carried in
    /// the learner, so the round counter alone reproduces the shuffle —
    /// the property checkpoint resume relies on.
    fn update(&mut self, buffer: &RolloutBuffer) -> RoundLosses {
        let _span = tsc_obs::span!("ppo.update");
        let epochs = self.cfg.ppo.epochs;
        let minibatch = self.cfg.ppo.minibatch;
        let mut rng = StdRng::seed_from_u64(derive_rollout_seed(
            self.cfg.seed,
            self.rounds_trained,
            0x0BB5,
        ));
        let mut acc = RoundLosses::default();
        let mut count = 0usize;
        let fold = |acc: &mut RoundLosses, l: RoundLosses| {
            acc.policy_loss += l.policy_loss;
            acc.value_loss += l.value_loss;
            acc.entropy += l.entropy;
            acc.approx_kl += l.approx_kl;
            acc.clip_fraction += l.clip_fraction;
            acc.grad_norm = acc.grad_norm.max(l.grad_norm);
        };
        for _epoch in 0..epochs {
            let batches = buffer.minibatches(minibatch, &mut rng);
            for batch in batches {
                if self.cfg.parameter_sharing {
                    let l = self.update_minibatch(0, buffer, &batch);
                    fold(&mut acc, l);
                    count += 1;
                } else {
                    // Group the minibatch by owning agent. Buffer lanes
                    // are env-major (`lane = env * num_agents + agent`),
                    // so the owning agent — and therefore the bundle —
                    // is `lane % num_agents`.
                    let mut per_agent: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.num_agents];
                    for (lane, t) in batch {
                        per_agent[lane % self.num_agents].push((lane, t));
                    }
                    for (a, items) in per_agent.into_iter().enumerate() {
                        if !items.is_empty() {
                            let l = self.update_minibatch(a, buffer, &items);
                            fold(&mut acc, l);
                            count += 1;
                        }
                    }
                }
            }
        }
        let n = count.max(1) as f32;
        RoundLosses {
            policy_loss: acc.policy_loss / n,
            value_loss: acc.value_loss / n,
            entropy: acc.entropy / n,
            grad_norm: acc.grad_norm,
            approx_kl: acc.approx_kl / n,
            clip_fraction: acc.clip_fraction / n,
        }
    }

    /// One gradient step of bundle `b` on the given `(agent, step)`
    /// items. Returns the step's losses and diagnostics.
    fn update_minibatch(
        &mut self,
        b: usize,
        buffer: &RolloutBuffer,
        items: &[(usize, usize)],
    ) -> RoundLosses {
        let _span = tsc_obs::span!("ppo.minibatch");
        let bw = self.cfg.bandwidth;
        let rows = items.len();
        let value_scale = self.value_scale();
        let mut actions = Vec::with_capacity(rows);
        let mut old_logp = Vec::with_capacity(rows);
        let mut advs = Vec::with_capacity(rows);
        let mut rets = Vec::with_capacity(rows);
        let mut aux_targets = Vec::with_capacity(rows);
        for &(a, t) in items {
            let tr = &buffer.transitions(a)[t];
            actions.push(tr.action);
            old_logp.push(tr.log_prob);
            let target = buffer.target(a, t);
            advs.push(target.advantage);
            rets.push(target.ret / value_scale);
            aux_targets.push(tr.aux.first().copied().unwrap_or(0.0));
        }
        // One `rows × cols` network input, row `r` filled from item `r`.
        let gather = |cols: usize, fill: &dyn Fn(&Transition, &mut [f32])| {
            let mut x = Tensor::zeros(rows, cols);
            for (r, &(a, t)) in items.iter().enumerate() {
                fill(&buffer.transitions(a)[t], x.row_mut(r));
            }
            x
        };
        let bundle = &mut self.bundles[b];
        let obs_dim = bundle.actor.obs_dim();
        let actor_hidden = bundle.actor.lstm_hidden();
        let critic_hidden = bundle.critic.lstm_hidden();
        let mut g = Graph::new();
        let x = g.input(gather(obs_dim + bw, &|tr, row| {
            let (obs, msg) = row.split_at_mut(obs_dim);
            obs.copy_from_slice(&tr.obs);
            msg.copy_from_slice(&tr.message_in);
        }));
        let h = g.input(gather(actor_hidden, &|tr, row| {
            row.copy_from_slice(&tr.actor_h.0)
        }));
        let c = g.input(gather(actor_hidden, &|tr, row| {
            row.copy_from_slice(&tr.actor_h.1)
        }));
        let (out, _) = bundle.actor.forward(&mut g, &bundle.params, x, h, c);
        let logp_all = g.log_softmax(out.logits);
        let picked = g.gather_cols(logp_all, actions);
        let pl = clipped_policy_loss(&mut g, picked, &old_logp, &advs, self.cfg.ppo.clip);
        let ent = entropy_bonus(&mut g, out.logits);
        // Critic.
        let critic_dim = bundle.critic.input_dim();
        let cx = g.input(gather(critic_dim, &|tr, row| {
            row.copy_from_slice(&tr.critic_obs)
        }));
        let ch = g.input(gather(critic_hidden, &|tr, row| {
            row.copy_from_slice(&tr.critic_h.0)
        }));
        let cc = g.input(gather(critic_hidden, &|tr, row| {
            row.copy_from_slice(&tr.critic_h.1)
        }));
        let (v, _, _) = bundle.critic.forward(&mut g, &bundle.params, cx, ch, cc);
        let vl = value_loss(&mut g, v, &rets);
        // Assemble: policy + c_v·value − β·entropy (+ message aux).
        let vls = g.scale(vl, self.cfg.ppo.value_coef);
        let ents = g.scale(ent, -self.cfg.ppo.entropy_coef);
        let mut loss = g.add(pl, vls);
        loss = g.add(loss, ents);
        if bw > 0 {
            if let Some(msg) = out.message {
                // Message auxiliary objective: the regularized message
                // must encode local congestion (see DESIGN.md).
                let squashed = g.sigmoid(msg);
                let first = g.slice_cols(squashed, 0, 1);
                let target = g.input(Tensor::from_vec(rows, 1, aux_targets));
                let d = g.sub(first, target);
                let sq = g.square(d);
                let ml = g.mean(sq);
                let mls = g.scale(ml, self.cfg.message_coef);
                loss = g.add(loss, mls);
            }
        }
        let stats = (
            g.value(pl).get(0, 0),
            g.value(vl).get(0, 0),
            g.value(ent).get(0, 0),
        );
        // Post-hoc diagnostics (pure reads of forward values — no
        // effect on the gradient or on any RNG, so instrumented and
        // uninstrumented runs stay bit-identical): approximate KL
        // `E[logπ_old − logπ_new]` and the fraction of importance
        // ratios outside the clip range.
        let new_logp = g.value(picked);
        let mut kl_sum = 0.0f32;
        let mut clipped = 0usize;
        for (i, &old) in old_logp.iter().enumerate() {
            let new = new_logp.get(i, 0);
            kl_sum += old - new;
            if (tsc_nn::math::exp(new - old) - 1.0).abs() > self.cfg.ppo.clip {
                clipped += 1;
            }
        }
        g.backward(loss, &mut bundle.params);
        let grad_norm = bundle.params.clip_grad_norm(self.cfg.ppo.max_grad_norm);
        bundle.opt.step(&mut bundle.params);
        RoundLosses {
            policy_loss: stats.0,
            value_loss: stats.1,
            entropy: stats.2,
            grad_norm,
            approx_kl: kl_sum / rows as f32,
            clip_fraction: clipped as f32 / rows as f32,
        }
    }

    /// Trains for at least `episodes` episodes, invoking `on_episode`
    /// after each.
    ///
    /// With `cfg.num_envs = 1` this is the classic loop: one episode
    /// per PPO update, episode `i` seeded `base_seed + i`. With
    /// `K = num_envs > 1`, each update consumes a *round* of `K`
    /// episodes collected from independent env replicas against a
    /// frozen policy snapshot, replica `e` of round `r` seeded
    /// [`derive_rollout_seed`]`(base_seed, r, e)`; rounds repeat until
    /// `episodes` is reached, so the history length rounds up to a
    /// multiple of `K`. Results are bit-identical whether the replicas
    /// run on worker threads (`cfg.parallel_rollouts`) or serially.
    ///
    /// # Errors
    ///
    /// Propagates environment failures.
    pub fn train(
        &mut self,
        env: &mut TscEnv,
        episodes: usize,
        base_seed: u64,
        mut on_episode: impl FnMut(&TrainEpisode),
    ) -> Result<Vec<TrainEpisode>, SimError> {
        let k = self.cfg.num_envs.max(1);
        self.with_obs(|log| log.log_train_start(base_seed, episodes, self.rounds_trained));
        let mut history = Vec::with_capacity(episodes);
        if k == 1 {
            for i in 0..episodes {
                let ep = self.train_episode(env, base_seed + i as u64)?;
                on_episode(&ep);
                history.push(ep);
            }
            return Ok(history);
        }
        // `env` serves as the prototype; replicas are reset with their
        // derived seeds before every round, so its current state never
        // leaks into training.
        let mut set = RolloutSet::new(env, k);
        let mut round: u64 = 0;
        while history.len() < episodes {
            let seeds: Vec<u64> = (0..k)
                .map(|e| derive_rollout_seed(base_seed, round, e as u64))
                .collect();
            let rollouts = self.collect_rollouts(&mut set, &seeds, self.cfg.parallel_rollouts)?;
            for ep in self.update_round(rollouts) {
                on_episode(&ep);
                history.push(ep);
            }
            round += 1;
        }
        Ok(history)
    }

    /// FNV-1a-64 over the configuration's debug representation —
    /// written into every checkpoint so restore can refuse state from a
    /// differently-configured learner (wrong shapes would be caught
    /// anyway; wrong hyper-parameters would silently train the wrong
    /// model). Shared with checkpoint consumers as
    /// [`crate::checkpoint::config_fingerprint`].
    fn config_fingerprint(&self) -> u64 {
        crate::checkpoint::config_fingerprint(&self.cfg)
    }

    fn snapshot(&self) -> TrainerState {
        TrainerState {
            bundles: self
                .bundles
                .iter()
                .map(|b| (b.params.clone(), b.opt.clone()))
                .collect(),
            episodes_trained: self.episodes_trained,
            rounds_trained: self.rounds_trained,
        }
    }

    fn restore(&mut self, state: &TrainerState) {
        for (bundle, (params, opt)) in self.bundles.iter_mut().zip(&state.bundles) {
            bundle.params.copy_from(params);
            bundle.opt = opt.clone();
        }
        self.episodes_trained = state.episodes_trained;
        self.rounds_trained = state.rounds_trained;
    }

    /// Simulates the aftermath of a non-finite gradient step by
    /// poisoning one weight with NaN. Only reachable through
    /// [`FaultPlan::nan_gradient`].
    fn poison_first_parameter(&mut self) {
        if let Some(bundle) = self.bundles.first_mut() {
            if let Some(id) = bundle.params.ids().next() {
                bundle.params.value_mut(id).data_mut()[0] = f32::NAN;
            }
        }
    }

    /// Writes the full training state (weights, Adam moments and
    /// timestep, episode/round counters, `base_seed`, config
    /// fingerprint) to `path` atomically. See [`Checkpoint`] for the
    /// format and the bit-identical-resume guarantee.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save_checkpoint(
        &self,
        path: impl AsRef<std::path::Path>,
        base_seed: u64,
    ) -> std::io::Result<()> {
        self.checkpoint_state(base_seed).write_atomic(path)
    }

    /// Snapshots the full training state as a [`Checkpoint`] value
    /// (the serialization side of
    /// [`save_checkpoint`](Self::save_checkpoint)).
    fn checkpoint_state(&self, base_seed: u64) -> Checkpoint {
        Checkpoint {
            fingerprint: self.config_fingerprint(),
            episodes_trained: self.episodes_trained,
            rounds_trained: self.rounds_trained,
            base_seed,
            bundles: self
                .bundles
                .iter()
                .map(|b| (b.params.clone(), b.opt.clone()))
                .collect(),
        }
    }

    /// Restores a checkpoint written by
    /// [`save_checkpoint`](Self::save_checkpoint) into this learner and
    /// returns the `base_seed` of the interrupted run. All-or-nothing:
    /// the checksum, fingerprint, and every bundle's layout are
    /// validated before the first weight is touched, so a rejected
    /// checkpoint leaves the learner exactly as it was.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Load`] for corrupt/truncated files,
    /// fingerprint mismatches, and layout mismatches; [`TrainError::Io`]
    /// wrapped inside [`TrainError::Load`] for filesystem failures.
    pub fn load_checkpoint(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<u64, TrainError> {
        let ck = Checkpoint::read(path)?;
        if ck.fingerprint != self.config_fingerprint() {
            return Err(TrainError::Load(tsc_nn::LoadError::Format(format!(
                "configuration fingerprint mismatch: checkpoint {:016x}, learner {:016x}",
                ck.fingerprint,
                self.config_fingerprint()
            ))));
        }
        if ck.bundles.len() != self.bundles.len() {
            return Err(TrainError::Load(tsc_nn::LoadError::Format(format!(
                "expected {} bundles, found {}",
                self.bundles.len(),
                ck.bundles.len()
            ))));
        }
        for (bundle, (params, opt)) in self.bundles.iter().zip(&ck.bundles) {
            Self::check_layout(&bundle.params, params)?;
            if !opt.matches(&bundle.params) {
                return Err(TrainError::Load(tsc_nn::LoadError::Format(
                    "optimizer state does not match parameter layout".into(),
                )));
            }
        }
        for (bundle, (params, opt)) in self.bundles.iter_mut().zip(ck.bundles) {
            bundle.params.copy_from(&params);
            bundle.opt = opt;
        }
        self.episodes_trained = ck.episodes_trained;
        self.rounds_trained = ck.rounds_trained;
        Ok(ck.base_seed)
    }

    /// Reconstructs a learner from a checkpoint: builds a fresh model
    /// for `env` with `cfg`, restores the checkpoint into it, and
    /// returns the learner together with the interrupted run's
    /// `base_seed`. Continuing with
    /// [`train_checkpointed`](Self::train_checkpointed) and that seed
    /// produces the exact byte-for-byte parameter trajectory of the run
    /// that was never interrupted.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint validation failures; `cfg` must match the
    /// checkpointed configuration (enforced via fingerprint).
    pub fn resume(
        env: &TscEnv,
        cfg: PairUpLightConfig,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(Self, u64), TrainError> {
        let mut model = PairUpLight::new(env, cfg);
        let base_seed = model.load_checkpoint(path)?;
        Ok((model, base_seed))
    }

    /// Collects one round of rollouts with panic isolation: each worker
    /// runs inside `catch_unwind`, and a panicked replica is retried
    /// with the **same** derived seed (bounded by
    /// `cfg.max_round_retries`). Because [`collect_rollout`]
    /// (Self::collect_rollout) takes `&self` and starts from
    /// `env.reset(seed)`, a retry observes no trace of the aborted
    /// attempt — the recovered round is bit-identical to one where the
    /// panic never happened, which is why `AssertUnwindSafe` is sound
    /// here.
    fn collect_round_isolated(
        &self,
        set: &mut RolloutSet,
        seeds: &[u64],
        round: u64,
    ) -> Result<Vec<Rollout>, TrainError> {
        assert_eq!(seeds.len(), set.len(), "one seed per replica");
        let run = |env: &mut TscEnv, seed: u64, e: usize| {
            catch_unwind(AssertUnwindSafe(|| {
                if self
                    .faults
                    .lock()
                    .expect("fault plan lock")
                    .take_panic(round, e)
                {
                    panic!("injected rollout worker fault (round {round}, env {e})");
                }
                self.collect_rollout(env, seed)
            }))
        };
        let run = &run;
        let mut slots: Vec<Option<std::thread::Result<Result<Rollout, SimError>>>> =
            (0..set.len()).map(|_| None).collect();
        if self.cfg.parallel_rollouts && set.len() > 1 {
            std::thread::scope(|scope| {
                for (e, ((env, &seed), slot)) in set
                    .envs_mut()
                    .iter_mut()
                    .zip(seeds)
                    .zip(slots.iter_mut())
                    .enumerate()
                {
                    scope.spawn(move || {
                        *slot = Some(run(env, seed, e));
                        tsc_obs::span::flush_thread();
                    });
                }
            });
        } else {
            for (e, ((env, &seed), slot)) in set
                .envs_mut()
                .iter_mut()
                .zip(seeds)
                .zip(slots.iter_mut())
                .enumerate()
            {
                *slot = Some(run(env, seed, e));
            }
        }
        // Retry panicked replicas serially (panics are the rare path);
        // healthy replicas' results are already in their slots.
        let mut out = Vec::with_capacity(set.len());
        for (e, (slot, env)) in slots.into_iter().zip(set.envs_mut()).enumerate() {
            let mut result = slot.expect("every worker fills its slot");
            let mut retries = 0u32;
            while result.is_err() {
                if retries >= self.cfg.max_round_retries {
                    return Err(TrainError::WorkerPanic {
                        round,
                        env: e,
                        retries,
                    });
                }
                retries += 1;
                self.with_obs(|log| log.log_worker_panic_retry(round, e, retries));
                result = run(env, seeds[e], e);
            }
            let Ok(rollout) = result else {
                unreachable!("loop above exits only on success")
            };
            out.push(rollout?);
        }
        Ok(out)
    }

    /// The fault-tolerant training loop: [`train`](Self::train)'s
    /// schedule plus panic-isolated workers, the divergence sentinel
    /// with rollback, and periodic atomic checkpoints.
    ///
    /// Per round it (1) snapshots the full training state in memory,
    /// (2) collects rollouts with panicked workers retried on the same
    /// seed, (3) runs the PPO update, (4) checks the update statistics
    /// and parameters for divergence — on a trip the snapshot is
    /// restored and the round retried with a deterministically reseeded
    /// schedule (the same seed would diverge identically), bounded by
    /// `cfg.max_round_retries` — and (5) writes a checkpoint through
    /// `manager` when one is due, pruning to the retention policy.
    ///
    /// Seeding continues from the learner's lifetime counters rather
    /// than restarting at zero: round `r` of a resumed learner draws
    /// the same seeds as round `r` of one that never stopped, which is
    /// what makes resume-from-checkpoint bit-identical.
    ///
    /// # Errors
    ///
    /// [`TrainError::Sim`] for deterministic environment failures
    /// (never retried), [`TrainError::WorkerPanic`] /
    /// [`TrainError::Diverged`] when a retry budget is exhausted,
    /// [`TrainError::Io`] for checkpoint failures, and
    /// [`TrainError::Aborted`] for an injected abort.
    pub fn train_checkpointed(
        &mut self,
        env: &mut TscEnv,
        episodes: usize,
        base_seed: u64,
        manager: Option<&CheckpointManager>,
        mut on_episode: impl FnMut(&TrainEpisode),
    ) -> Result<Vec<TrainEpisode>, TrainError> {
        /// Salts the reseeded retry of a diverged round so it draws
        /// fresh episodes instead of replaying the divergent ones.
        const RETRY_SALT: u64 = 0x8E7B_11F5;
        let k = self.cfg.num_envs.max(1);
        self.with_obs(|log| log.log_train_start(base_seed, episodes, self.rounds_trained));
        let mut set = RolloutSet::new(env, k);
        let mut history = Vec::with_capacity(episodes);
        while history.len() < episodes {
            let round = self.rounds_trained;
            let restore_point = self.snapshot();
            let mut attempt: u32 = 0;
            let round_records = loop {
                // Attempt 0 reproduces `train`'s nominal seed schedule
                // (continued across resume via the lifetime counters);
                // retries derive a fresh deterministic schedule.
                let seeds: Vec<u64> = if k == 1 {
                    let nominal = base_seed + self.episodes_trained as u64;
                    vec![if attempt == 0 {
                        nominal
                    } else {
                        derive_rollout_seed(nominal, u64::from(attempt), RETRY_SALT)
                    }]
                } else {
                    let round_key = if attempt == 0 {
                        round
                    } else {
                        derive_rollout_seed(round, u64::from(attempt), RETRY_SALT)
                    };
                    (0..k)
                        .map(|e| derive_rollout_seed(base_seed, round_key, e as u64))
                        .collect()
                };
                let rollouts = self.collect_round_isolated(&mut set, &seeds, round)?;
                let records = self.update_round(rollouts);
                if self.faults.lock().expect("fault plan lock").take_nan(round) {
                    self.poison_first_parameter();
                }
                let stats = UpdateStats {
                    policy_loss: records[0].policy_loss,
                    value_loss: records[0].value_loss,
                    entropy: records[0].entropy,
                    grad_norm: records[0].grad_norm,
                };
                match check_update(&stats, self.cfg.divergence_loss_limit)
                    .and_then(|()| check_finite_params(self.parameter_vector()))
                {
                    Ok(()) => break records,
                    Err(diagnosis) => {
                        self.restore(&restore_point);
                        let exhausted = attempt >= self.cfg.max_round_retries;
                        self.with_obs(|log| {
                            log.log_divergence(round, attempt, &diagnosis.to_string());
                            log.log_rollback(round, attempt, !exhausted);
                        });
                        if exhausted {
                            return Err(TrainError::Diverged {
                                round,
                                retries: attempt,
                                reason: diagnosis.to_string(),
                            });
                        }
                        attempt += 1;
                    }
                }
            };
            for ep in round_records {
                on_episode(&ep);
                history.push(ep);
            }
            if let Some(manager) = manager {
                if manager.due(self.rounds_trained) {
                    let path = manager.path_for(self.rounds_trained);
                    if self
                        .faults
                        .lock()
                        .expect("fault plan lock")
                        .take_checkpoint_fail(round)
                    {
                        // Injected disk-full: the write tears mid-file
                        // and the real error surfaces. The previous
                        // checkpoint must survive untouched.
                        return Err(TrainError::Io(
                            self.checkpoint_state(base_seed).write_torn(path),
                        ));
                    }
                    self.save_checkpoint(&path, base_seed)?;
                    self.with_obs(|log| log.log_checkpoint(self.rounds_trained, &path));
                    manager.prune()?;
                }
            }
            if self
                .faults
                .lock()
                .expect("fault plan lock")
                .take_abort(round)
            {
                return Err(TrainError::Aborted { round });
            }
        }
        Ok(history)
    }

    /// All trainable scalars across bundles, concatenated in a stable
    /// (bundle, parameter, element) order. Intended for exact
    /// (bit-for-bit) equality checks between training runs.
    pub fn parameter_vector(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_parameters());
        for b in &self.bundles {
            for id in b.params.ids() {
                out.extend_from_slice(b.params.value(id).data());
            }
        }
        out
    }

    /// Validates that `loaded` has exactly the tensor count and shapes
    /// of `expected`, returning a typed error (never panicking) on
    /// mismatch. Crate-visible so
    /// [`PolicySnapshot`](crate::policy::PolicySnapshot) hot-reload
    /// validates checkpoints with the same rules.
    pub(crate) fn check_layout(
        expected: &Params,
        loaded: &Params,
    ) -> Result<(), tsc_nn::LoadError> {
        if loaded.len() != expected.len() {
            return Err(tsc_nn::LoadError::Format(format!(
                "parameter layout mismatch: expected {} tensors, found {}",
                expected.len(),
                loaded.len()
            )));
        }
        for (a, b) in expected.ids().zip(loaded.ids()) {
            if expected.value(a).shape() != loaded.value(b).shape() {
                return Err(tsc_nn::LoadError::Format(format!(
                    "parameter layout mismatch: tensor {} is {:?}, expected {:?}",
                    expected.name(a),
                    loaded.value(b).shape(),
                    expected.value(a).shape()
                )));
            }
        }
        Ok(())
    }

    /// Snapshots the deployable policy state (actor weights, encoder,
    /// pairing, phase counts) for a serving runtime. See
    /// [`PolicySnapshot`].
    pub fn policy_snapshot(&self) -> PolicySnapshot {
        PolicySnapshot::new(
            self.cfg,
            self.encoder.clone(),
            self.pairing.clone(),
            self.bundles
                .iter()
                .map(|b| (b.params.clone(), b.actor.clone()))
                .collect(),
            self.phases_per_agent.clone(),
            self.num_agents,
        )
    }

    /// Snapshots the current policy as a decentralized execution
    /// controller (the critic is not deployed — paper Fig. 4).
    pub fn controller(&self) -> PairUpLightController {
        PairUpLightController::new(self.policy_snapshot())
    }
}

/// The deployed (inference-only) PairUpLight policy: local observations
/// plus one incoming message per intersection. Samples its phases when
/// `cfg.stochastic_execution` is set, else takes the argmax.
#[derive(Debug)]
pub struct PairUpLightController {
    policy: PolicySnapshot,
    actor: ActorStep,
    stochastic: bool,
    /// Outgoing messages of the last step, read by partners this step.
    messages: Vec<Vec<f32>>,
    masked: Vec<f32>,
    rng: StdRng,
}

impl PairUpLightController {
    /// Deploys `policy` from a zero episode state.
    fn new(policy: PolicySnapshot) -> Self {
        let cfg = *policy.config();
        PairUpLightController {
            actor: ActorStep::new(&policy.actors()[0].1, policy.num_agents(), policy.shared()),
            stochastic: cfg.stochastic_execution,
            messages: vec![vec![0.0; cfg.bandwidth]; policy.num_agents()],
            masked: Vec::new(),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xC0FFEE),
            policy,
        }
    }

    /// Forces greedy (argmax) execution instead of sampling.
    pub fn set_greedy(&mut self) {
        self.stochastic = false;
    }
}

impl Controller for PairUpLightController {
    fn reset(&mut self) {
        self.actor.reset();
        self.messages.iter_mut().for_each(|m| m.fill(0.0));
        // Reseed so evaluation episodes are reproducible.
        self.rng = StdRng::seed_from_u64(self.policy.config().seed ^ 0xC0FFEE);
    }

    fn decide(&mut self, obs: &[IntersectionObs]) -> Vec<usize> {
        let policy = &self.policy;
        let partners = match policy.config().pairing {
            crate::config::PairingMode::CongestedUpstream => policy.pairing().partners(obs),
            crate::config::PairingMode::SelfLoop => policy.pairing().self_partners(),
            crate::config::PairingMode::RandomUpstream => {
                policy.pairing().random_partners(&mut self.rng)
            }
        };
        for (a, ob) in obs.iter().enumerate() {
            let msg = &self.messages[partners[a]];
            self.actor.set_input(a, policy.encoder(), ob, msg);
        }
        let actors = policy.actors();
        self.actor.run_all(|b| (&actors[b].0, &actors[b].1));
        // Every input row already holds its partner's message, so the
        // outgoing messages can overwrite `messages` in place.
        let mut actions = Vec::with_capacity(obs.len());
        for (a, &phases) in policy.phases_per_agent().iter().enumerate() {
            let rng = self.stochastic.then_some(&mut self.rng);
            actions.push(execution_action(
                self.actor.probs(a),
                phases,
                &mut self.masked,
                rng,
            ));
            // σ = 0 at execution: deterministic logistic squash.
            for (m, &raw) in self.messages[a].iter_mut().zip(self.actor.message(a)) {
                *m = crate::message::logistic(raw);
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc_sim::scenario::grid::{Grid, GridConfig};
    use tsc_sim::scenario::patterns::{flows, FlowPattern, PatternConfig};
    use tsc_sim::{EnvConfig, SimConfig};

    fn tiny_scenario() -> tsc_sim::Scenario {
        let grid = Grid::build(GridConfig {
            cols: 2,
            rows: 2,
            spacing: 150.0,
        })
        .unwrap();
        let f = flows(&grid, FlowPattern::Five, &PatternConfig::default()).unwrap();
        grid.scenario("tiny", f).unwrap()
    }

    fn tiny_env(horizon: u32) -> TscEnv {
        TscEnv::new(
            tiny_scenario(),
            SimConfig::default(),
            EnvConfig {
                decision_interval: 5,
                episode_horizon: horizon,
            },
            0,
        )
        .unwrap()
    }

    /// Same environment, but stepped by the legacy tick oracle instead
    /// of the event core.
    fn tiny_env_legacy(horizon: u32) -> TscEnv {
        TscEnv::new_legacy(
            tiny_scenario(),
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

    #[test]
    fn one_training_episode_runs_and_updates() {
        let mut env = tiny_env(140);
        let mut model = PairUpLight::new(&env, small_cfg());
        let before = model.num_parameters();
        let ep = model.train_episode(&mut env, 1).unwrap();
        assert_eq!(model.num_parameters(), before);
        assert_eq!(ep.stats.steps, env.steps_per_episode());
        assert!(ep.stats.spawned > 0);
        assert_eq!(model.episodes_trained(), 1);
        assert!(ep.mean_message > 0.0, "messages flow by default");
    }

    /// End-to-end pin of the simulator migration: a short training run
    /// must produce bit-identical weights whether the environment is
    /// stepped by the event core or the legacy tick oracle. This pushes
    /// the parity contract through the full stack — observations,
    /// rewards, rollout collection, GAE and PPO updates.
    #[test]
    fn training_bitwise_identical_on_event_and_legacy_cores() {
        let run = |legacy: bool| {
            let mut env = if legacy {
                tiny_env_legacy(140)
            } else {
                tiny_env(140)
            };
            let mut model = PairUpLight::new(&env, small_cfg());
            let history = model.train(&mut env, 2, 42, |_| {}).unwrap();
            let bits: Vec<u32> = model
                .parameter_vector()
                .iter()
                .map(|p| p.to_bits())
                .collect();
            let rewards: Vec<u64> = history
                .iter()
                .map(|r| r.stats.total_reward.to_bits())
                .collect();
            (bits, rewards)
        };
        let (event_bits, event_rewards) = run(false);
        let (legacy_bits, legacy_rewards) = run(true);
        assert_eq!(event_rewards, legacy_rewards, "episode rewards diverged");
        assert_eq!(event_bits, legacy_bits, "trained weights diverged");
    }

    /// Golden pin of the trainer's arithmetic. Every other bit-identity
    /// test compares two runs of the same code, so a kernel change that
    /// moves bits would pass them all; this one compares against the
    /// FNV-1a-64 of `parameter_vector()` bits after two rounds, for
    /// shared parameters with communication and for one bundle per
    /// agent.
    #[test]
    fn two_training_rounds_match_golden_parameter_digest() {
        let digest = |cfg: PairUpLightConfig| {
            let mut env = tiny_env(140);
            let mut model = PairUpLight::new(&env, cfg);
            for seed in [1, 2] {
                model.train_episode(&mut env, seed).unwrap();
            }
            let bytes: Vec<u8> = model
                .parameter_vector()
                .iter()
                .flat_map(|p| p.to_bits().to_le_bytes())
                .collect();
            crate::checkpoint::fnv1a64(&bytes)
        };
        let shared = small_cfg();
        assert!(shared.parameter_sharing && shared.bandwidth > 0);
        let unshared = PairUpLightConfig {
            parameter_sharing: false,
            ..small_cfg()
        };
        assert_eq!(digest(shared), 0x25a2_db9a_28a9_a185, "shared");
        assert_eq!(digest(unshared), 0x4149_4b92_1c8b_b7d2, "per-agent");
    }

    #[test]
    fn training_is_deterministic_given_seeds() {
        let run = || {
            let mut env = tiny_env(140);
            let mut model = PairUpLight::new(&env, small_cfg());
            let a = model.train_episode(&mut env, 5).unwrap();
            let b = model.train_episode(&mut env, 6).unwrap();
            (a.stats.total_reward, b.stats.total_reward, a.mean_message)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn multi_env_round_counts_episodes_and_shares_losses() {
        let mut env = tiny_env(140);
        let mut cfg = small_cfg();
        cfg.num_envs = 2;
        let mut model = PairUpLight::new(&env, cfg);
        let history = model.train(&mut env, 2, 0, |_| {}).unwrap();
        assert_eq!(history.len(), 2);
        assert_eq!(model.episodes_trained(), 2);
        assert_eq!(history[0].episode, 0);
        assert_eq!(history[1].episode, 1);
        // One PPO update per round: its diagnostics are shared by the
        // round's episode records.
        assert_eq!(history[0].policy_loss, history[1].policy_loss);
        assert_eq!(history[0].value_loss, history[1].value_loss);
        // Replicas got distinct derived seeds, so their episodes differ.
        assert_ne!(history[0].stats.total_reward, history[1].stats.total_reward);
    }

    #[test]
    fn collect_rollout_is_pure_and_repeatable() {
        let mut env = tiny_env(140);
        let model = PairUpLight::new(&env, small_cfg());
        let a = model.collect_rollout(&mut env, 3).unwrap();
        let b = model.collect_rollout(&mut env, 3).unwrap();
        assert_eq!(a.stats.total_reward, b.stats.total_reward);
        assert_eq!(a.trajectory.last_values, b.trajectory.last_values);
        assert_eq!(a.trajectory.total(), b.trajectory.total());
    }

    /// The pre-buffer-reuse collection loop: every forward pass builds
    /// an autograd tape and every step reallocates its scratch. Kept as
    /// the reference implementation for the bit-identity test below.
    fn collect_rollout_tape_reference(
        model: &PairUpLight,
        env: &mut TscEnv,
        seed: u64,
    ) -> Trajectory {
        let epsilon = model.epsilon();
        let n = model.num_agents;
        let lstm = model.cfg.lstm_hidden;
        let bw = model.cfg.bandwidth;
        let mut rng = StdRng::seed_from_u64(derive_rollout_seed(model.cfg.seed, seed, 0x5A17));
        let mut all_obs = env.reset(seed);
        let mut actor_states: Vec<LstmState> = (0..n).map(|_| LstmState::zeros(1, lstm)).collect();
        let mut critic_states: Vec<LstmState> = (0..n).map(|_| LstmState::zeros(1, lstm)).collect();
        let mut messages: Vec<Vec<f32>> = vec![vec![0.0; bw]; n];
        let mut traj = Trajectory::new(n);
        loop {
            let partners = match model.cfg.pairing {
                crate::config::PairingMode::CongestedUpstream => model.pairing.partners(&all_obs),
                crate::config::PairingMode::SelfLoop => model.pairing.self_partners(),
                crate::config::PairingMode::RandomUpstream => {
                    model.pairing.random_partners(&mut rng)
                }
            };
            let mut actions = vec![0usize; n];
            let mut step_transitions: Vec<Transition> = Vec::with_capacity(n);
            let mut next_messages = vec![vec![0.0f32; bw]; n];
            for a in 0..n {
                let local = model.encoder.encode_local(&all_obs[a]);
                let msg_in: Vec<f32> = if bw > 0 {
                    messages[partners[a]].clone()
                } else {
                    Vec::new()
                };
                let mut input = local.clone();
                input.extend_from_slice(&msg_in);
                let b = if model.cfg.parameter_sharing { 0 } else { a };
                let mut g = Graph::new();
                let (out, next_state) = model.bundles[b].actor.step(
                    &mut g,
                    &model.bundles[b].params,
                    Tensor::row_from_slice(&input),
                    &actor_states[a],
                );
                let probs = tsc_nn::softmax_rows(g.value(out.logits));
                let raw_msg: Vec<f32> = out
                    .message
                    .map(|m| g.value(m).row(0).to_vec())
                    .unwrap_or_default();
                let critic_in = model.critic_input(&all_obs, a);
                let mut gc = Graph::new();
                let (v, next_cstate) = model.bundles[b].critic.step(
                    &mut gc,
                    &model.bundles[b].params,
                    Tensor::row_from_slice(&critic_in),
                    &critic_states[a],
                );
                let value = gc.value(v).get(0, 0) * model.value_scale();
                let (action, log_prob) = model.sample_action(probs.row(0), a, epsilon, &mut rng);
                actions[a] = action;
                if bw > 0 {
                    next_messages[a] =
                        crate::message::regularize(&raw_msg, model.cfg.sigma, &mut rng);
                }
                step_transitions.push(Transition {
                    obs: local,
                    critic_obs: critic_in,
                    action,
                    reward: 0.0,
                    value,
                    log_prob,
                    actor_h: (
                        actor_states[a].h.row(0).to_vec(),
                        actor_states[a].c.row(0).to_vec(),
                    ),
                    critic_h: (
                        critic_states[a].h.row(0).to_vec(),
                        critic_states[a].c.row(0).to_vec(),
                    ),
                    message_in: msg_in,
                    aux: Vec::new(),
                });
                actor_states[a] = next_state;
                critic_states[a] = next_cstate;
            }
            let step = env.step(&actions).unwrap();
            for (a, mut t) in step_transitions.into_iter().enumerate() {
                t.reward = ((step.rewards[a] as f32) * model.cfg.reward_scale)
                    .clamp(-model.cfg.reward_clip, 0.0);
                t.aux = vec![model.encoder.message_target(&step.obs[a])];
                traj.push(a, t);
            }
            messages = next_messages;
            all_obs = step.obs;
            if step.done {
                break;
            }
        }
        for (a, state) in critic_states.iter().enumerate() {
            let b = if model.cfg.parameter_sharing { 0 } else { a };
            let critic_in = model.critic_input(&all_obs, a);
            let mut g = Graph::new();
            let (v, _) = model.bundles[b].critic.step(
                &mut g,
                &model.bundles[b].params,
                Tensor::row_from_slice(&critic_in),
                state,
            );
            traj.last_values[a] = g.value(v).get(0, 0) * model.value_scale();
        }
        traj
    }

    /// Pins the kernel's branches against the tape reference: shared
    /// parameters with the centralized critic, one bundle per agent
    /// (the Monaco config), and the local critic (SingleAgentRL).
    #[test]
    fn buffer_reusing_rollout_is_bit_identical_to_tape_reference() {
        let configs = [
            small_cfg(),
            PairUpLightConfig {
                parameter_sharing: false,
                ..small_cfg()
            },
            PairUpLightConfig {
                critic_mode: CriticMode::Local,
                ..small_cfg()
            },
        ];
        for cfg in configs {
            let mut env = tiny_env(140);
            let model = PairUpLight::new(&env, cfg);
            let fast = model.collect_rollout(&mut env, 3).unwrap().trajectory;
            let reference = collect_rollout_tape_reference(&model, &mut env, 3);
            assert_eq!(fast.last_values, reference.last_values, "{cfg:?}");
            assert_eq!(fast.agents, reference.agents, "{cfg:?}");
        }
    }

    #[test]
    fn buffer_reusing_rollout_matches_reference_without_communication() {
        let mut env = tiny_env(140);
        let model = PairUpLight::new(&env, small_cfg().without_communication());
        let fast = model.collect_rollout(&mut env, 9).unwrap().trajectory;
        let reference = collect_rollout_tape_reference(&model, &mut env, 9);
        assert_eq!(fast.agents, reference.agents);
        assert_eq!(fast.last_values, reference.last_values);
    }

    #[test]
    fn no_communication_ablation_sends_nothing() {
        let mut env = tiny_env(140);
        let cfg = small_cfg().without_communication();
        let mut model = PairUpLight::new(&env, cfg);
        let ep = model.train_episode(&mut env, 1).unwrap();
        assert_eq!(ep.mean_message, 0.0);
    }

    #[test]
    fn controller_runs_an_episode() {
        let mut env = tiny_env(140);
        let mut model = PairUpLight::new(&env, small_cfg());
        model.train_episode(&mut env, 1).unwrap();
        let mut ctl = model.controller();
        let stats = env.run_episode(&mut ctl, 99).unwrap();
        assert!(stats.steps > 0);
        assert!(stats.spawned > 0);
    }

    #[test]
    fn per_agent_parameters_when_sharing_disabled() {
        let env = tiny_env(140);
        let mut cfg = small_cfg();
        cfg.parameter_sharing = false;
        let model = PairUpLight::new(&env, cfg);
        let shared = PairUpLight::new(&env, small_cfg());
        assert_eq!(model.num_parameters(), 4 * shared.num_parameters());
    }

    #[test]
    fn checkpoint_round_trips_policy() {
        let mut env = tiny_env(140);
        let mut model = PairUpLight::new(&env, small_cfg());
        model.train_episode(&mut env, 1).unwrap();
        let path = std::env::temp_dir().join("pairuplight_test_model.ckpt");
        model.save_checkpoint(&path, 0).unwrap();
        // A fresh, untrained model with the same config.
        let mut restored = PairUpLight::new(&env, small_cfg());
        assert_ne!(restored.parameter_vector(), model.parameter_vector());
        restored.load_checkpoint(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        // Both controllers must now act identically.
        let mut a = model.controller();
        let mut b = restored.controller();
        let obs = env.reset(5);
        a.reset();
        b.reset();
        assert_eq!(a.decide(&obs), b.decide(&obs));
    }

    #[test]
    fn load_checkpoint_rejects_mismatched_layout() {
        let env = tiny_env(140);
        let model = PairUpLight::new(&env, small_cfg());
        let path = std::env::temp_dir().join("pairuplight_test_mismatch.ckpt");
        model.save_checkpoint(&path, 0).unwrap();
        let mut cfg2 = small_cfg();
        cfg2.parameter_sharing = false; // 4 bundles instead of 1
        let mut other = PairUpLight::new(&env, cfg2);
        let before = other.parameter_vector();
        assert!(other.load_checkpoint(&path).is_err());
        assert_eq!(other.parameter_vector(), before, "rejected load is a no-op");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn epsilon_decays_with_episodes() {
        let env = tiny_env(140);
        let mut model = PairUpLight::new(&env, small_cfg());
        let e0 = model.epsilon();
        model.episodes_trained = model.cfg.eps_decay_episodes;
        assert!(model.epsilon() < e0);
        assert_eq!(model.epsilon(), model.cfg.eps_end);
    }
}
