//! The serving runtime: batched tape-free inference with deadlines,
//! graceful degradation, and atomic checkpoint hot reload.
//!
//! ## Exactness of the batched path
//!
//! The runtime runs the actor through [`ActorStep`], the same kernel
//! rollout collection and the evaluation controller use. Under
//! parameter sharing every intersection runs the same actor, so all
//! `N` agent inputs stack into one `N × D` matrix and a step is a
//! single forward. Every kernel on that path (matmul, bias add, LSTM
//! gates, softmax) is row-independent, so the batched forward is
//! **bit-identical** to `N` separate `1 × D` forwards — the tier-1
//! parity test in `tests/parity.rs` pins both paths against a
//! tape-built reference of the actor.
//!
//! ## Degradation model
//!
//! A [`MaxPressureController`] runs warm-standby: it is advanced every
//! step (so its min-hold counters stay continuous) and its actions are
//! used whenever the policy cannot answer. The full degradation ladder,
//! from least to most degraded:
//!
//! 1. **healthy** — batched policy inference on the raw observation;
//! 2. **imputed** — the optional observation-health tracker
//!    ([`ObsHealth`](pairuplight::ObsHealth)) papers over implausible
//!    detector readings with last-known-good values, and the
//!    [`MessageLossPolicy`](pairuplight::MessageLossPolicy) substitutes
//!    for dropped partner messages; the policy still decides;
//! 3. **per-agent fallback** — an agent whose sensor-suspect or
//!    message-loss streak crosses its configured threshold (or, on the
//!    per-agent path, whose turn arrives after the deadline) is
//!    answered by MaxPressure while the rest of the grid stays on the
//!    policy;
//! 4. **whole-step fallback** — a batched deadline overrun degrades
//!    every agent for the step.
//!
//! A staged checkpoint reload is deliberately *not* on the ladder: the
//! staged snapshot is a second buffer, validated off the serving path,
//! and the live policy answers at full quality until
//! [`commit_reload`](ServeRuntime::commit_reload) swaps the buffers
//! between steps — a reload never costs a degraded step.
//!
//! Deadline semantics differ by path: the batched forward is
//! all-or-nothing, so an overrun discards the whole step's policy
//! actions (recurrent state still advances, keeping the policy warm);
//! the per-agent path checks the deadline before each agent and only
//! the agents after the overrun fall back, carrying their previous
//! message and LSTM state forward unchanged.
//!
//! Every fallback decision is attributed to a [`DegradeReason`] per
//! agent (in [`ServeStep::causes`] and the telemetry), so an operator
//! can tell a slow model from a dying detector from a cut cable.
//!
//! ## Chaos
//!
//! [`set_chaos`](ServeRuntime::set_chaos) installs the comms faults of
//! a [`ChaosPlan`](tsc_sim::ChaosPlan) into the runtime's
//! [`MessageChannel`](pairuplight::MessageChannel) (sensing and
//! actuation faults live in the simulator). Comms fault windows are in
//! *decision steps* — the unit the channel operates in — while
//! sensing/actuation windows are in sim seconds. With no faults
//! installed the channel is bit-identical to the plain double-buffered
//! message exchange it replaced.

use std::path::Path;
use std::time::{Duration, Instant};

use pairuplight::message::logistic;
use pairuplight::policy::execution_action;
use pairuplight::{
    ActorStep, Checkpoint, HealthConfig, MessageChannel, MessageLossPolicy, ObsHealth, PairUpLight,
    PairUpLightConfig, PairingMode, PolicySnapshot, TrainError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tsc_baselines::MaxPressureController;
use tsc_sim::chaos::AgentSel;
use tsc_sim::{ChaosPlan, Controller, IntersectionObs, TscEnv};

use crate::error::ServeError;
use crate::telemetry::ServeTelemetry;

/// Serving-time knobs (independent of the trained policy's config).
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Per-step latency budget. When a step exceeds it, affected
    /// intersections fall back to MaxPressure instead of blocking the
    /// signal plan. `None` disables the deadline.
    pub deadline: Option<Duration>,
    /// Minimum phase hold (decision steps) for the fallback
    /// controller; clamped to at least 1.
    pub fallback_min_hold: usize,
    /// Resilience against degraded sensing and comms. The default is
    /// fully disabled, leaving serving bit-identical to a runtime
    /// without the resilience layer.
    pub resilience: ResilienceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            deadline: None,
            fallback_min_hold: 2,
            resilience: ResilienceConfig::default(),
        }
    }
}

/// Controller-side resilience knobs: observation-health tracking,
/// message-loss substitution, and the health-triggered fallback
/// thresholds.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResilienceConfig {
    /// Observation-health tracking thresholds; `None` (the default)
    /// disables tracking and imputation entirely.
    pub health: Option<HealthConfig>,
    /// What replaces a dropped partner message.
    pub msg_loss: MessageLossPolicy,
    /// Fall an agent back to MaxPressure after this many consecutive
    /// sensor-suspect steps (requires `health`; 0 disables).
    pub sensor_fallback_after: u32,
    /// Fall an agent back to MaxPressure after this many consecutive
    /// dropped partner messages (0 disables).
    pub comms_fallback_after: u32,
}

/// Why a step (or part of it) was served by the fallback controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The per-step latency budget was exceeded.
    DeadlineOverrun,
    /// The agent's sensor-suspect streak crossed
    /// [`ResilienceConfig::sensor_fallback_after`].
    SensorHealth,
    /// The agent's dropped-message streak crossed
    /// [`ResilienceConfig::comms_fallback_after`].
    CommsHealth,
}

impl DegradeReason {
    /// Number of distinct reasons (telemetry array size).
    pub const COUNT: usize = 3;
    /// Every reason, in [`index`](Self::index) order.
    pub const ALL: [DegradeReason; DegradeReason::COUNT] = [
        DegradeReason::DeadlineOverrun,
        DegradeReason::SensorHealth,
        DegradeReason::CommsHealth,
    ];

    /// Stable dense index for telemetry arrays.
    pub fn index(self) -> usize {
        match self {
            DegradeReason::DeadlineOverrun => 0,
            DegradeReason::SensorHealth => 1,
            DegradeReason::CommsHealth => 2,
        }
    }
}

/// The outcome of one served decision step.
#[derive(Debug, Clone)]
pub struct ServeStep {
    /// Chosen phase per agent, in agent order.
    pub actions: Vec<usize>,
    /// Which agents were answered by the fallback controller
    /// (`causes[a].is_some()`, kept in both forms for convenience).
    pub fell_back: Vec<bool>,
    /// Why each agent fell back (`None` = served by the policy).
    pub causes: Vec<Option<DegradeReason>>,
    /// Wall-clock time spent in [`ServeRuntime::serve_step`].
    pub latency: Duration,
    /// Set when any agent fell back this step (the first affected
    /// agent's cause).
    pub degraded: Option<DegradeReason>,
}

/// A deployed PairUpLight policy serving a live grid: tape-free
/// batched inference, per-step deadlines with MaxPressure fallback,
/// streaming telemetry, and atomic checkpoint hot reload.
///
/// Execution is always greedy (argmax), matching
/// [`PairUpLightController::set_greedy`]
/// (pairuplight::PairUpLightController::set_greedy).
#[derive(Debug)]
pub struct ServeRuntime {
    policy: PolicySnapshot,
    cfg: ServeConfig,
    fallback: MaxPressureController,
    /// Inputs, recurrent state and activations of the live policy.
    actor: ActorStep,
    /// The partner-message channel (fault-free unless
    /// [`set_chaos`](Self::set_chaos) installed comms faults).
    channel: MessageChannel,
    /// Outgoing messages assembled this step, published to the channel
    /// at the end of the step (`N × bandwidth` scratch).
    next_messages: Vec<Vec<f32>>,
    /// Post-channel partner message per receiver (`N × bandwidth`).
    delivered: Vec<Vec<f32>>,
    /// Partner chosen per receiver on the last served step (flight
    /// recorder / forensics causal pass).
    last_partners: Vec<usize>,
    /// FNV-1a digest of `delivered` as of the last served step.
    last_msg_digest: u64,
    /// Consecutive dropped partner messages per agent.
    comms_streaks: Vec<u32>,
    /// Observation-health tracker (when resilience enables it).
    health: Option<ObsHealth>,
    /// Scratch for the health-filtered joint observation.
    scratch_obs: Vec<IntersectionObs>,
    /// Decision steps served since the last state reset (the clock
    /// comms fault windows are evaluated against).
    step_index: u32,
    masked: Vec<f32>,
    staged: Option<PolicySnapshot>,
    telemetry: ServeTelemetry,
    injected_delay: Option<Duration>,
    rng: StdRng,
    /// Optional JSONL sink for per-step serve events (out-of-band;
    /// dropped with a warning on the first write failure).
    obs_sink: Option<tsc_obs::EventSink>,
}

impl ServeRuntime {
    /// Wraps a policy snapshot for serving.
    pub fn new(policy: PolicySnapshot, cfg: ServeConfig) -> Self {
        let num_agents = policy.num_agents();
        let bandwidth = policy.config().bandwidth;
        let seed = policy.config().seed ^ 0xC0FFEE;
        let mut rt = ServeRuntime {
            fallback: MaxPressureController::new(cfg.fallback_min_hold.max(1)),
            channel: MessageChannel::new(num_agents, bandwidth, cfg.resilience.msg_loss),
            health: cfg.resilience.health.map(|h| ObsHealth::new(num_agents, h)),
            actor: ActorStep::new(&policy.actors()[0].1, num_agents, policy.shared()),
            policy,
            cfg,
            next_messages: Vec::new(),
            delivered: Vec::new(),
            last_partners: Vec::new(),
            last_msg_digest: 0,
            comms_streaks: vec![0; num_agents],
            scratch_obs: Vec::new(),
            step_index: 0,
            masked: Vec::new(),
            staged: None,
            telemetry: ServeTelemetry::new(num_agents),
            injected_delay: None,
            rng: StdRng::seed_from_u64(seed),
            obs_sink: None,
        };
        rt.reset_state();
        rt
    }

    /// Loads a `pairuplight-checkpoint v1` bundle and builds a serving
    /// runtime for `env` from it — the training stack stays out of the
    /// hot loop; it is only used here to validate and restore the
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Load`] for truncated/corrupt files,
    /// fingerprint mismatches, and layout mismatches; the error is
    /// typed, nothing is partially loaded.
    pub fn from_checkpoint(
        env: &TscEnv,
        cfg: PairUpLightConfig,
        serve_cfg: ServeConfig,
        path: impl AsRef<Path>,
    ) -> Result<Self, ServeError> {
        let (model, _base_seed) = PairUpLight::resume(env, cfg, path)?;
        Ok(ServeRuntime::new(model.policy_snapshot(), serve_cfg))
    }

    /// Zeroes recurrent state and messages, resets the fallback
    /// controller, health tracking, and the message channel (installed
    /// chaos faults persist), and reseeds the runtime RNG
    /// (reproducible episodes).
    fn reset_state(&mut self) {
        let n = self.policy.num_agents();
        let bw = self.policy.config().bandwidth;
        self.actor.reset();
        self.next_messages = vec![vec![0.0; bw]; n];
        self.delivered = vec![vec![0.0; bw]; n];
        self.channel.reset();
        self.comms_streaks.iter_mut().for_each(|s| *s = 0);
        if let Some(health) = &mut self.health {
            health.reset();
        }
        self.step_index = 0;
        self.fallback.reset();
        self.rng = StdRng::seed_from_u64(self.policy.config().seed ^ 0xC0FFEE);
    }

    /// The serving-time configuration.
    pub fn serve_config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The currently live policy.
    pub fn policy(&self) -> &PolicySnapshot {
        &self.policy
    }

    /// Accumulated serving metrics.
    pub fn telemetry(&self) -> &ServeTelemetry {
        &self.telemetry
    }

    /// Attaches a JSONL sink for per-step serve events. Out-of-band:
    /// serving behavior is unchanged; the sink is dropped (with a
    /// warning on stderr) on the first write failure rather than ever
    /// failing a step.
    pub fn attach_obs(&mut self, sink: tsc_obs::EventSink) {
        self.obs_sink = Some(sink);
    }

    /// Detaches the per-step event sink, returning it (e.g. to flush
    /// or to summarize the file). `None` when none was attached.
    pub fn detach_obs(&mut self) -> Option<tsc_obs::EventSink> {
        self.obs_sink.take()
    }

    /// Total tensor (re)allocation events in the inference hot path so
    /// far. Constant across steps in steady state — the allocation
    /// probe test pins this.
    pub fn alloc_events(&self) -> u64 {
        self.actor.alloc_events()
    }

    /// Test/chaos hook: sleep this long inside the policy path of every
    /// step (per agent on the per-agent path), making deadline overruns
    /// deterministic. `None` clears the injection.
    pub fn inject_delay(&mut self, delay: Option<Duration>) {
        self.injected_delay = delay;
    }

    /// Whether a reload is staged but not yet committed.
    pub fn reload_in_flight(&self) -> bool {
        self.staged.is_some()
    }

    /// Installs the comms faults of `plan` into the runtime's message
    /// channel, keyed by `seed` (the sensing/actuation faults of the
    /// same plan belong in the simulator — see
    /// [`TscEnv::set_chaos`](tsc_sim::TscEnv::set_chaos)). Replaces any
    /// previously installed faults and clears message history; an empty
    /// plan restores fault-free serving.
    ///
    /// Fault windows are evaluated against the runtime's decision-step
    /// counter, which resets with episode state.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidChaos`] when a comms fault targets an agent
    /// index outside the served grid.
    pub fn set_chaos(&mut self, plan: &ChaosPlan, seed: u64) -> Result<(), ServeError> {
        let n = self.policy.num_agents();
        for fault in plan.comms() {
            if let AgentSel::One(agent) = fault.receivers {
                if agent >= n {
                    return Err(ServeError::InvalidChaos { agent, agents: n });
                }
            }
        }
        // Decorrelate from the simulator's chaos stream for the same
        // user seed.
        self.channel
            .set_faults(plan.comms().to_vec(), seed ^ 0xC077_5EED);
        self.comms_streaks.iter_mut().for_each(|s| *s = 0);
        Ok(())
    }

    /// Stage a checkpoint for hot reload: read, checksum-verify, and
    /// layout-check `path`, holding the new weights aside in a second
    /// buffer. Serving continues **at full quality on the live
    /// policy** until [`commit_reload`](Self::commit_reload); the live
    /// policy is not touched, and on error nothing is staged.
    ///
    /// # Errors
    ///
    /// [`ServeError::ReloadInFlight`] when a reload is already staged;
    /// [`ServeError::Load`] when the checkpoint is truncated, corrupt,
    /// or does not match the live policy's configuration/layout.
    pub fn begin_reload(&mut self, path: impl AsRef<Path>) -> Result<(), ServeError> {
        if self.staged.is_some() {
            return Err(ServeError::ReloadInFlight);
        }
        let ck = Checkpoint::read(path).map_err(TrainError::from)?;
        let next = self.policy.with_checkpoint(&ck)?;
        self.staged = Some(next);
        Ok(())
    }

    /// Swap the staged weights in atomically (between steps) and reset
    /// recurrent state, messages, and the fallback controller — the new
    /// policy starts from a clean episode state.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoReloadPending`] when nothing is staged.
    pub fn commit_reload(&mut self) -> Result<(), ServeError> {
        let next = self.staged.take().ok_or(ServeError::NoReloadPending)?;
        self.policy = next;
        self.reset_state();
        Ok(())
    }

    /// Drop a staged reload, if any. Returns whether one was dropped.
    pub fn abort_reload(&mut self) -> bool {
        self.staged.take().is_some()
    }

    /// Serve one decision step: one phase choice per intersection.
    ///
    /// # Errors
    ///
    /// [`ServeError::AgentCountMismatch`] when `obs` does not match the
    /// policy's agent count; [`ServeError::PhaseCountMismatch`] when an
    /// observation's phase count does not match the policy's topology
    /// for that agent (the signature of wiring a runtime to the wrong
    /// grid). Both are checked before any state is touched — a failed
    /// step leaves the runtime exactly as it was.
    pub fn serve_step(&mut self, obs: &[IntersectionObs]) -> Result<ServeStep, ServeError> {
        let _span = tsc_obs::span!("serve.step");
        let n = self.policy.num_agents();
        if obs.len() != n {
            return Err(ServeError::AgentCountMismatch {
                got: obs.len(),
                expected: n,
            });
        }
        let max_phases = self.policy.config().max_phases;
        for (a, (ob, &expected)) in obs.iter().zip(self.policy.phases_per_agent()).enumerate() {
            // The policy's per-agent phase counts are the scenario's
            // clamped to `max_phases`, so clamp the observation the
            // same way before comparing.
            if ob.num_phases.min(max_phases) != expected {
                return Err(ServeError::PhaseCountMismatch {
                    agent: a,
                    got: ob.num_phases,
                    expected,
                });
            }
        }
        let t0 = Instant::now();
        // Health filtering (identity when disabled): both the fallback
        // and the policy see the sanitized view, so imputation helps
        // whichever controller ends up answering.
        let mut scratch = std::mem::take(&mut self.scratch_obs);
        let eff: &[IntersectionObs] = match self.health.as_mut() {
            Some(health) => {
                scratch.clear();
                scratch.extend_from_slice(obs);
                health.filter(&mut scratch);
                &scratch
            }
            None => obs,
        };
        // Warm standby: the fallback decides every step even when
        // unused, so its min-hold counters track the live grid and a
        // degraded step starts from a sane phase, not a cold reset.
        let fb_actions = self.fallback.decide(eff);
        // A staged reload is invisible here: the staged snapshot is a
        // second buffer held aside, and the live policy keeps serving
        // at full quality until `commit_reload` swaps the buffers
        // between steps.
        let (actions, causes) = {
            let partners = self.partners(eff);
            self.deliver_messages(&partners);
            let causes = self.health_causes();
            if self.policy.shared() {
                self.step_batched(eff, fb_actions, causes, t0)
            } else {
                self.step_per_agent(eff, fb_actions, causes, t0)
            }
        };
        self.scratch_obs = scratch;
        self.step_index += 1;
        let fell_back: Vec<bool> = causes.iter().map(|c| c.is_some()).collect();
        let degraded = causes.iter().find_map(|&c| c);
        let latency = t0.elapsed();
        self.telemetry.record(latency, &causes, degraded.is_some());
        if let Some(sink) = self.obs_sink.as_mut() {
            use tsc_obs::Json;
            let record = Json::obj([
                ("type", Json::str("serve_step")),
                ("step", Json::num(f64::from(self.step_index - 1))),
                ("latency_us", Json::num(latency.as_nanos() as f64 / 1_000.0)),
                (
                    "fallbacks",
                    Json::num(causes.iter().filter(|c| c.is_some()).count() as f64),
                ),
                (
                    "degraded",
                    match degraded {
                        Some(reason) => Json::str(format!("{reason:?}")),
                        None => Json::Null,
                    },
                ),
            ]);
            if let Err(e) = sink.emit(&record) {
                eprintln!(
                    "tsc-obs: serve event logging disabled after write failure on {}: {e}",
                    sink.path().display()
                );
                self.obs_sink = None;
            }
        }
        Ok(ServeStep {
            actions,
            fell_back,
            causes,
            latency,
            degraded,
        })
    }

    /// Runs the message channel for every receiver and updates the
    /// dropped-message streaks. Also books what the flight recorder
    /// reads: the partner map and a bit-exact digest of the delivered
    /// message plane (observation-only — no decision depends on them).
    fn deliver_messages(&mut self, partners: &[usize]) {
        let time = self.step_index;
        for (a, &p) in partners.iter().enumerate() {
            let dropped = self
                .channel
                .deliver_into(a, p, time, &mut self.delivered[a]);
            self.comms_streaks[a] = if dropped {
                self.comms_streaks[a] + 1
            } else {
                0
            };
        }
        self.last_partners.clear();
        self.last_partners.extend_from_slice(partners);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for row in &self.delivered {
            for &v in row {
                let bits = u64::from(v.to_bits());
                for i in 0..4 {
                    h ^= (bits >> (i * 8)) & 0xff;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        self.last_msg_digest = h;
    }

    /// FNV-1a digest of the partner-message plane the policy consumed
    /// on the most recent served step (bit-exact over the `f32`s).
    pub fn last_message_digest(&self) -> u64 {
        self.last_msg_digest
    }

    /// The partner each receiver consumed on the most recent served
    /// step (empty before the first step). `partners[a] = p` means
    /// agent `a` read the message agent `p` published the previous
    /// step — the edge the forensics causal pass walks.
    pub fn last_partners(&self) -> &[usize] {
        &self.last_partners
    }

    /// Per-agent fallback causes from the health trackers (sensor
    /// outranks comms when both trip).
    fn health_causes(&self) -> Vec<Option<DegradeReason>> {
        let n = self.policy.num_agents();
        let mut causes = vec![None; n];
        let res = &self.cfg.resilience;
        if res.sensor_fallback_after > 0 {
            if let Some(health) = &self.health {
                for (cause, &streak) in causes.iter_mut().zip(health.suspect_streaks()) {
                    if streak >= res.sensor_fallback_after {
                        *cause = Some(DegradeReason::SensorHealth);
                    }
                }
            }
        }
        if res.comms_fallback_after > 0 {
            for (cause, &streak) in causes.iter_mut().zip(&self.comms_streaks) {
                if cause.is_none() && streak >= res.comms_fallback_after {
                    *cause = Some(DegradeReason::CommsHealth);
                }
            }
        }
        causes
    }

    fn partners(&mut self, obs: &[IntersectionObs]) -> Vec<usize> {
        match self.policy.config().pairing {
            PairingMode::CongestedUpstream => self.policy.pairing().partners(obs),
            PairingMode::SelfLoop => self.policy.pairing().self_partners(),
            PairingMode::RandomUpstream => self.policy.pairing().random_partners(&mut self.rng),
        }
    }

    /// Greedy action and squashed outgoing message of agent `a` from
    /// its last forward.
    fn act(&mut self, a: usize) -> usize {
        let phases = self.policy.phases_per_agent()[a];
        for (dst, &raw) in self.next_messages[a].iter_mut().zip(self.actor.message(a)) {
            *dst = logistic(raw);
        }
        execution_action(self.actor.probs(a), phases, &mut self.masked, None)
    }

    /// Shared-parameter path: all agents in one `N × D` forward.
    ///
    /// Health-degraded agents still go through the forward (one batch
    /// is all-or-nothing, and it keeps their recurrent state and
    /// outgoing message warm); only their *action* is replaced by the
    /// fallback's.
    fn step_batched(
        &mut self,
        obs: &[IntersectionObs],
        fb_actions: Vec<usize>,
        mut causes: Vec<Option<DegradeReason>>,
        t0: Instant,
    ) -> (Vec<usize>, Vec<Option<DegradeReason>>) {
        let _span = tsc_obs::span!("serve.infer");
        for (a, ob) in obs.iter().enumerate() {
            let encoder = self.policy.encoder();
            self.actor.set_input(a, encoder, ob, &self.delivered[a]);
        }
        if let Some(delay) = self.injected_delay {
            std::thread::sleep(delay);
        }
        let actors = self.policy.actors();
        self.actor.run_all(|b| (&actors[b].0, &actors[b].1));
        // Recurrent state and messages advance even on overrun: the
        // forward already ran, and keeping the policy's state warm
        // means recovery after a slow step needs no re-warmup.
        let mut actions: Vec<usize> = (0..obs.len()).map(|a| self.act(a)).collect();
        self.channel.publish(&self.next_messages);
        let overrun = matches!(self.cfg.deadline, Some(d) if t0.elapsed() > d);
        for (a, cause) in causes.iter_mut().enumerate() {
            // The batch is all-or-nothing: an overrun degrades every
            // agent. A pre-existing health cause is the more specific
            // diagnosis, so it is kept.
            if overrun && cause.is_none() {
                *cause = Some(DegradeReason::DeadlineOverrun);
            }
            if cause.is_some() {
                actions[a] = fb_actions[a];
            }
        }
        (actions, causes)
    }

    /// Independent-parameter path: one `1 × D` forward per agent, with
    /// the deadline checked before each agent.
    ///
    /// Unlike the batched path, a health-degraded agent's forward is
    /// skipped entirely (its latency budget is better spent on healthy
    /// agents); it re-publishes its previous message and carries its
    /// LSTM state forward unchanged, exactly like an agent behind a
    /// deadline overrun.
    fn step_per_agent(
        &mut self,
        obs: &[IntersectionObs],
        fb_actions: Vec<usize>,
        mut causes: Vec<Option<DegradeReason>>,
        t0: Instant,
    ) -> (Vec<usize>, Vec<Option<DegradeReason>>) {
        let _span = tsc_obs::span!("serve.infer");
        let n = self.policy.num_agents();
        let mut actions = fb_actions;
        for a in 0..n {
            if causes[a].is_some() {
                // Health-triggered fallback: keep the fallback action,
                // re-publish the previous message, leave LSTM state.
                let (dst, src) = (&mut self.next_messages[a], self.channel.latest(a));
                dst.copy_from_slice(src);
                continue;
            }
            if let Some(deadline) = self.cfg.deadline {
                if t0.elapsed() > deadline {
                    // Budget exhausted: the rest of the grid keeps its
                    // fallback actions and carries message + LSTM
                    // state forward unchanged.
                    for (b, cause) in causes.iter_mut().enumerate().skip(a) {
                        if cause.is_none() {
                            *cause = Some(DegradeReason::DeadlineOverrun);
                        }
                        let (dst, src) = (&mut self.next_messages[b], self.channel.latest(b));
                        dst.copy_from_slice(src);
                    }
                    break;
                }
            }
            if let Some(delay) = self.injected_delay {
                std::thread::sleep(delay);
            }
            let encoder = self.policy.encoder();
            self.actor
                .set_input(a, encoder, &obs[a], &self.delivered[a]);
            let actors = self.policy.actors();
            self.actor.run_one(a, |b| (&actors[b].0, &actors[b].1));
            actions[a] = self.act(a);
        }
        self.channel.publish(&self.next_messages);
        (actions, causes)
    }
}

impl Controller for ServeRuntime {
    fn reset(&mut self) {
        self.reset_state();
    }

    fn decide(&mut self, obs: &[IntersectionObs]) -> Vec<usize> {
        self.serve_step(obs)
            .expect("environment topology matches the served policy")
            .actions
    }
}
