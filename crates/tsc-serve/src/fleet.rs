//! The multi-tenant serving fleet: N independent [`ServeRuntime`]s
//! under per-tenant supervision, with crash isolation, circuit
//! breakers, deterministic recovery, and infrastructure chaos.
//!
//! ## Isolation model
//!
//! Each tenant owns its grid, its policy runtime, its warm-standby
//! [`MaxPressureController`], and its [`Supervisor`] — there is **no
//! shared mutable state between tenants**, so any tenant's failure is
//! invisible in every other tenant's output (pinned bit-for-bit by a
//! tier-1 test). A tenant's policy step runs under
//! [`catch_unwind`](std::panic::catch_unwind): a panic never takes the
//! process down; the panicking tenant answers with its standby's
//! MaxPressure actions for that step and is quarantined.
//!
//! The fleet keeps its own standby *outside* the [`ServeRuntime`]
//! (which has an internal fallback of its own) because after a panic
//! the runtime's in-memory state is untrusted and after a reload the
//! runtime is rebuilt from scratch — the fleet-level standby's
//! min-hold counters stay continuous across both, so degraded service
//! never cold-resets mid-episode.
//!
//! ## Supervision loop
//!
//! Per tenant and step (see [`Supervisor`] for the state machine):
//! Healthy/Recovering tenants serve their policy and feed the breaker
//! window with step outcomes (typed errors and deadline overruns are
//! soft faults); Degraded tenants serve standby until their
//! deterministic backoff expires, then re-try the policy on probation;
//! Quarantined tenants serve standby and periodically reload their
//! last good checkpoint under a bounded retry budget — with the budget
//! exhausted they stay quarantined quietly forever (no hot-looping).
//!
//! ## Admission and the brownout ladder
//!
//! With [`FleetConfig::admission`] configured, every step first runs
//! the SLA-aware [`Admission`] controller over the offered load
//! (declared per tenant via [`FleetRuntime::step_with_load`]; plain
//! [`step`](FleetRuntime::step) offers 1 request per tenant). Each
//! tenant is assigned a [`ServiceLevel`]: `Full` serves exactly as
//! without admission; `Degraded` decimates inference (the policy
//! forward runs every other step, the previous plan is held in
//! between); `Standby` answers from the warm standby; `Shed` refuses
//! the step and holds the previous plan. **Supervision outranks
//! admission**: a Degraded/Quarantined tenant's recovery schedule is
//! untouched, and browned-out steps neither feed the circuit breaker
//! nor consume retry trials. With `admission: None` (the default) or
//! no overload the fleet is bit-identical to one without the layer —
//! pinned by a digest test.
//!
//! ## Determinism
//!
//! There is **zero wall-clock dependence**: backoff, retries, every
//! [`InfraChaosPlan`] decision, and every admission/shedding decision
//! are functions of the fleet step index and pure hashes. An empty
//! plan is bit-identical to no plan, and the same seed + plan + load
//! replays bit-for-bit ([`FleetStep::digest`] pins whole runs).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pairuplight::{Checkpoint, PolicySnapshot, TrainError};
use tsc_baselines::MaxPressureController;
use tsc_obs::flight::NO_DEADLINE;
use tsc_obs::{
    escape_label_value, fleet_event, write_incident, EventSink, FleetEventKind, FlightFrame,
    FlightRecorder, FlightTrigger, Incident, Json, MetricsRegistry,
};
use tsc_sim::{Controller, IntersectionObs};

use crate::admission::{Admission, AdmissionConfig, ServiceLevel, SlaClass};
use crate::engine::{DegradeReason, ServeConfig, ServeRuntime};
use crate::error::ServeError;
use crate::infra_chaos::{InfraChaosPlan, TenantSel};
use crate::supervisor::{Supervisor, SupervisorConfig, TenantState};
use crate::telemetry::ServeTelemetry;

/// Fleet-wide configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetConfig {
    /// Supervision knobs applied to every tenant.
    pub supervisor: SupervisorConfig,
    /// Seed keying infra-chaos draws, per-tenant backoff jitter, and
    /// admission tie-breaks.
    pub seed: u64,
    /// SLA-aware admission control. `None` (the default) disables the
    /// layer entirely — the fleet is bit-identical to one built before
    /// it existed.
    pub admission: Option<AdmissionConfig>,
    /// Per-tenant flight recording. `None` (the default) disables the
    /// recorder; enabled or disabled, the fleet's decisions are
    /// bit-identical — recording is strictly observation-only (pinned
    /// by a tier-1 digest test).
    pub flight: Option<FlightConfig>,
}

/// Flight-recorder knobs ([`FleetConfig::flight`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightConfig {
    /// Ring capacity in frames per tenant (the incident lookback
    /// window; clamped ≥ 1).
    pub capacity: usize,
    /// Minimum fleet steps between two automatic incident dumps of
    /// the same tenant — a flapping tenant produces one incident per
    /// cooldown window, not one per step. Explicit
    /// [`FleetRuntime::snapshot`] dumps bypass the cooldown.
    pub cooldown: u64,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            capacity: 256,
            cooldown: 64,
        }
    }
}

/// In-memory incident tail bound ([`FleetRuntime::take_incidents`]);
/// older incidents survive only as files.
pub const MAX_HELD_INCIDENTS: usize = 64;

/// FNV-1a digest of a joint observation, bit-exact over every field
/// (floats hashed by their IEEE-754 bits). The flight recorder's
/// `obs_digest` and the forensics replayer both use this, so a clean
/// replay matches frame-for-frame. Word-wise mixing (not byte-wise):
/// this runs on every serving step of every tenant, and an 8× cheaper
/// fold detects divergence exactly as well.
pub fn obs_digest(obs: &[IntersectionObs]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for o in obs {
        mix(o.node.0 as u64);
        mix(u64::from(o.time));
        mix(o.current_phase as u64);
        mix(o.num_phases as u64);
        mix(o.incoming.len() as u64);
        for lane in &o.incoming {
            mix(lane.link.0 as u64);
            mix(lane.direction as u64);
            mix(lane.count.to_bits());
            mix(lane.halting.to_bits());
            for m in lane.halting_by_movement {
                mix(m.to_bits());
            }
            mix(lane.head_wait.to_bits());
        }
        mix(o.outgoing_counts.len() as u64);
        for c in &o.outgoing_counts {
            mix(c.to_bits());
        }
        for l in &o.outgoing_links {
            mix(l.0 as u64);
        }
    }
    h
}

/// FNV-1a digest of a signal plan (chosen phase per intersection),
/// word-wise like [`obs_digest`].
pub fn actions_digest(actions: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &a in actions {
        h ^= a as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Flight-recorder health across the fleet, for live exposition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightHealth {
    /// Whether recording is configured at all.
    pub enabled: bool,
    /// Frames recorded across all tenants (lifetime).
    pub frames_recorded: u64,
    /// Frames overwritten by ring wraparound across all tenants.
    pub frames_dropped: u64,
    /// Incidents dumped (automatic triggers + snapshots).
    pub incidents_dumped: u64,
    /// The most recent dump: `(tenant, trigger, fleet step)`.
    pub last_trigger: Option<(usize, FlightTrigger, u64)>,
}

/// One [`FleetRuntime::exposition`] snapshot: the Prometheus text
/// page plus the same content as structured JSON (written alongside
/// `BENCH_*.json` reports).
#[derive(Debug, Clone)]
pub struct FleetExposition {
    /// Prometheus text exposition format (metric names and label
    /// values escaped per the format's rules).
    pub prometheus: String,
    /// The same snapshot as a JSON object.
    pub summary: Json,
}

/// Everything needed to host one tenant.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Operator-facing tenant name (events, reports).
    pub name: String,
    /// The deployed policy.
    pub snapshot: PolicySnapshot,
    /// Serving knobs for this tenant's runtime.
    pub serve_cfg: ServeConfig,
    /// Last good checkpoint on disk — the quarantine-recovery source
    /// (and the reload-storm target). `None` recovers from the
    /// in-memory last good snapshot instead.
    pub checkpoint: Option<PathBuf>,
    /// The tenant's service-level agreement (priority, latency target,
    /// max shed rate), consulted by admission control. The default is
    /// priority 0, no latency target, never shed.
    pub sla: SlaClass,
}

/// Who produced a tenant's actions this step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// The tenant's policy runtime (possibly with its own internal
    /// per-agent fallbacks — see the tenant's [`ServeTelemetry`]).
    Policy,
    /// The fleet-level warm-standby MaxPressure controller.
    Standby,
    /// Nobody: the tenant's previous signal plan was held without
    /// running any controller (a decimated-inference off-step or a
    /// shed step).
    Held,
}

impl ServedBy {
    /// Stable dense index (digest, telemetry, and flight-frame
    /// material).
    pub fn index(self) -> usize {
        match self {
            ServedBy::Policy => 0,
            ServedBy::Standby => 1,
            ServedBy::Held => 2,
        }
    }
}

/// One tenant's slice of a [`FleetStep`].
#[derive(Debug, Clone)]
pub struct TenantStep {
    /// Chosen phase per intersection of this tenant's grid.
    pub actions: Vec<usize>,
    /// Supervisor state *after* this step.
    pub state: TenantState,
    /// Which controller answered.
    pub served_by: ServedBy,
    /// Whether the tenant's policy step panicked this step (caught and
    /// isolated; `actions` are the standby's).
    pub panicked: bool,
    /// Where admission control placed the tenant on the brownout
    /// ladder ([`ServiceLevel::Full`] whenever admission is disabled).
    pub level: ServiceLevel,
    /// Wall time of this tenant's full fleet step (supervision
    /// included). Excluded from [`FleetStep::digest`] — wall time is
    /// not replayable.
    pub latency: Duration,
}

impl TenantStep {
    /// Internal constructor: admission level and latency are stamped
    /// by the fleet loop after the fact.
    fn new(actions: Vec<usize>, state: TenantState, served_by: ServedBy, panicked: bool) -> Self {
        TenantStep {
            actions,
            state,
            served_by,
            panicked,
            level: ServiceLevel::Full,
            latency: Duration::ZERO,
        }
    }
}

/// The outcome of one fleet step: every tenant answered, every step,
/// no matter what failed.
#[derive(Debug, Clone)]
pub struct FleetStep {
    /// Per-tenant outcomes, in tenant order.
    pub tenants: Vec<TenantStep>,
}

impl FleetStep {
    /// FNV-1a digest over every tenant's actions, state, serving
    /// source, and admission level — fold the per-step digests to pin
    /// a whole run bit-for-bit (latency is deliberately excluded).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |byte: u64| {
            h ^= byte;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for t in &self.tenants {
            mix(t.state.index() as u64);
            mix(t.served_by.index() as u64);
            mix(t.level.index() as u64);
            mix(t.panicked as u64);
            mix(t.actions.len() as u64);
            for &a in &t.actions {
                mix(a as u64);
            }
        }
        h
    }
}

/// Fleet-level counters for one tenant (the supervision story the
/// per-runtime [`ServeTelemetry`] cannot see: panics, breaker cycles,
/// quarantines, reload attempts, recovery latency).
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    /// Fleet steps this tenant has been served for.
    pub steps: u64,
    /// Steps answered by the fleet-level standby.
    pub standby_steps: u64,
    /// Caught policy panics.
    pub panics: u64,
    /// Policy soft faults (typed errors + deadline overruns).
    pub soft_faults: u64,
    /// Circuit-breaker openings.
    pub breaker_trips: u64,
    /// Breaker closings (probation passed).
    pub breaker_closes: u64,
    /// Quarantine entries.
    pub quarantines: u64,
    /// Full quarantine → Healthy recovery cycles.
    pub recoveries: u64,
    /// Checkpoint reload attempts while quarantined.
    pub reload_attempts: u64,
    /// Failed reload attempts (corrupt checkpoint, injected fault).
    pub reload_failures: u64,
    /// Fleet steps spent from each quarantine entry to the completed
    /// recovery, summed (divide by [`recoveries`](Self::recoveries)
    /// for the mean recovery latency).
    pub recovery_ticks_total: u64,
    /// Steps spent in each supervisor state, indexed by
    /// [`TenantState::index`].
    pub state_steps: [u64; TenantState::COUNT],
    /// Staged checkpoints swapped live (zero-degradation hot swaps).
    pub hot_swaps: u64,
    /// Steps admission control served below full quality (decimated,
    /// standby, or shed).
    pub brownout_steps: u64,
    /// Steps admission control refused outright.
    pub shed_steps: u64,
}

/// One hosted tenant: runtime + standby + supervisor + recovery
/// sources.
#[derive(Debug)]
struct Tenant {
    name: String,
    runtime: ServeRuntime,
    standby: MaxPressureController,
    supervisor: Supervisor,
    /// The snapshot recovery falls back to when no on-disk checkpoint
    /// is configured; refreshed on every successful reload.
    last_good: PolicySnapshot,
    serve_cfg: ServeConfig,
    checkpoint: Option<PathBuf>,
    /// Telemetry of runtimes retired by reloads, folded together so
    /// [`FleetRuntime::tenant_telemetry`] spans the tenant's whole
    /// life ([`ServeTelemetry::merge`] is load-bearing here).
    archive: ServeTelemetry,
    /// Fleet step of the current quarantine entry (recovery latency).
    quarantined_since: Option<u64>,
    stats: TenantStats,
    /// The most recent signal plan handed out — what a held (decimated
    /// off-step or shed) step answers with. Empty until the first
    /// served step.
    last_actions: Vec<usize>,
    /// Whether the previous admission decision was below full service
    /// (brownout enter/exit event edge detection).
    browned_out: bool,
    /// The tenant's SLA (from its [`TenantSpec`]).
    sla: SlaClass,
    /// Flight ring ([`FleetConfig::flight`]; `None` = recording off).
    flight: Option<FlightRecorder>,
    /// Fleet step of this tenant's last incident dump (automatic-dump
    /// cooldown).
    last_dump_step: Option<u64>,
}

/// A supervised multi-tenant serving fleet. See the module docs for
/// the isolation and supervision model.
#[derive(Debug)]
pub struct FleetRuntime {
    cfg: FleetConfig,
    tenants: Vec<Tenant>,
    plan: InfraChaosPlan,
    /// SLA-aware admission controller ([`FleetConfig::admission`];
    /// `None` = layer disabled, every step is `Full`).
    admission: Option<Admission>,
    /// Fleet steps served so far: the supervision clock and the chaos
    /// plan's time base.
    step: u64,
    obs_sink: Option<EventSink>,
    /// Where incident files are written (`None` = in-memory only).
    incident_dir: Option<PathBuf>,
    /// The replay context stamped into every dumped incident — set it
    /// to whatever reconstructs this fleet's world deterministically
    /// (scenario fingerprint, seed, plans, checkpoint ids).
    replay_context: Json,
    /// Bounded in-memory tail of dumped incidents (newest last).
    incidents: Vec<Incident>,
    /// Files written so far (dump order).
    incident_paths: Vec<PathBuf>,
    incidents_dumped: u64,
    last_trigger: Option<(usize, FlightTrigger, u64)>,
}

impl FleetRuntime {
    /// Builds a fleet hosting `specs`, all tenants Healthy, no infra
    /// chaos installed.
    pub fn new(cfg: FleetConfig, specs: Vec<TenantSpec>) -> Self {
        let admission = cfg
            .admission
            .map(|acfg| Admission::new(acfg, specs.iter().map(|s| s.sla).collect(), cfg.seed));
        let tenants = specs
            .into_iter()
            .enumerate()
            .map(|(idx, spec)| {
                // Same salt scheme as the chaos engine: decorrelate
                // each tenant's jitter stream from the shared seed.
                let salt = tsc_sim::chaos::fault_salt(cfg.seed ^ 0x000F_1EE7, idx);
                Tenant {
                    standby: MaxPressureController::new(spec.serve_cfg.fallback_min_hold.max(1)),
                    runtime: ServeRuntime::new(spec.snapshot.clone(), spec.serve_cfg),
                    supervisor: Supervisor::new(cfg.supervisor, salt),
                    archive: ServeTelemetry::new(spec.snapshot.num_agents()),
                    last_good: spec.snapshot,
                    serve_cfg: spec.serve_cfg,
                    checkpoint: spec.checkpoint,
                    name: spec.name,
                    quarantined_since: None,
                    stats: TenantStats::default(),
                    last_actions: Vec::new(),
                    browned_out: false,
                    sla: spec.sla,
                    flight: cfg.flight.map(|fc| FlightRecorder::new(fc.capacity)),
                    last_dump_step: None,
                }
            })
            .collect();
        FleetRuntime {
            cfg,
            tenants,
            plan: InfraChaosPlan::new(),
            admission,
            step: 0,
            obs_sink: None,
            incident_dir: None,
            replay_context: Json::Null,
            incidents: Vec::new(),
            incident_paths: Vec::new(),
            incidents_dumped: 0,
            last_trigger: None,
        }
    }

    /// Number of hosted tenants.
    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Tenant names, in tenant order.
    pub fn names(&self) -> Vec<&str> {
        self.tenants.iter().map(|t| t.name.as_str()).collect()
    }

    /// Fleet steps served so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// The supervisor state of tenant `t`.
    pub fn tenant_state(&self, t: usize) -> TenantState {
        self.tenants[t].supervisor.state()
    }

    /// Fleet-level counters for tenant `t`.
    pub fn tenant_stats(&self, t: usize) -> &TenantStats {
        &self.tenants[t].stats
    }

    /// The SLA class of tenant `t` (from its spec).
    pub fn tenant_sla(&self, t: usize) -> SlaClass {
        self.tenants[t].sla
    }

    /// The admission controller, when [`FleetConfig::admission`] is
    /// configured (per-tenant shed/step counters live here).
    pub fn admission(&self) -> Option<&Admission> {
        self.admission.as_ref()
    }

    /// Serving telemetry of tenant `t` across its whole life: the
    /// live runtime's telemetry merged with every runtime retired by a
    /// recovery reload.
    pub fn tenant_telemetry(&self, t: usize) -> ServeTelemetry {
        let tenant = &self.tenants[t];
        let mut out = tenant.archive.clone();
        out.merge(tenant.runtime.telemetry());
        out
    }

    /// Installs an infrastructure chaos plan (replacing any previous
    /// one). An empty plan leaves the fleet bit-identical to one that
    /// never had a plan installed.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidInfraChaos`] when a fault targets a tenant
    /// index outside the fleet.
    pub fn set_infra_chaos(&mut self, plan: InfraChaosPlan) -> Result<(), ServeError> {
        let n = self.tenants.len();
        for fault in plan.faults() {
            if let TenantSel::One(t) = fault.tenants {
                if t >= n {
                    return Err(ServeError::InvalidInfraChaos {
                        tenant: t,
                        tenants: n,
                    });
                }
            }
        }
        self.plan = plan;
        Ok(())
    }

    /// Attaches a JSONL sink for fleet lifecycle events (breaker
    /// open/close, quarantine enter/exit, recovery outcomes).
    /// Out-of-band: fleet behavior is unchanged; the sink is dropped
    /// with a stderr warning on the first write failure.
    pub fn attach_obs(&mut self, sink: EventSink) {
        self.obs_sink = Some(sink);
    }

    /// Detaches the event sink, returning it. `None` when none was
    /// attached.
    pub fn detach_obs(&mut self) -> Option<EventSink> {
        self.obs_sink.take()
    }

    /// Serves one decision step for every tenant at an offered load of
    /// one request per tenant. `obs[t]` is tenant `t`'s joint
    /// observation. Always returns actions for every tenant — panics
    /// are caught, faults are absorbed by the fallback ladder.
    ///
    /// # Errors
    ///
    /// [`ServeError::TenantCountMismatch`] when `obs` does not match
    /// the fleet's tenant count. (Per-tenant failures never surface
    /// here — they degrade that tenant only.)
    pub fn step(&mut self, obs: &[&[IntersectionObs]]) -> Result<FleetStep, ServeError> {
        self.step_impl(obs, None)
    }

    /// [`step`](Self::step) with an explicit offered load: `offered[t]`
    /// is the number of requests tenant `t` brings this step (clamped
    /// to ≥ 1). Only admission control reads the load — without
    /// [`FleetConfig::admission`] this is exactly `step`.
    ///
    /// # Errors
    ///
    /// [`ServeError::TenantCountMismatch`] /
    /// [`ServeError::OfferedLoadMismatch`] when `obs` or `offered` do
    /// not match the fleet's tenant count.
    pub fn step_with_load(
        &mut self,
        obs: &[&[IntersectionObs]],
        offered: &[u64],
    ) -> Result<FleetStep, ServeError> {
        if offered.len() != self.tenants.len() {
            return Err(ServeError::OfferedLoadMismatch {
                got: offered.len(),
                expected: self.tenants.len(),
            });
        }
        self.step_impl(obs, Some(offered))
    }

    fn step_impl(
        &mut self,
        obs: &[&[IntersectionObs]],
        offered: Option<&[u64]>,
    ) -> Result<FleetStep, ServeError> {
        if obs.len() != self.tenants.len() {
            return Err(ServeError::TenantCountMismatch {
                got: obs.len(),
                expected: self.tenants.len(),
            });
        }
        let step = self.step;
        let seed = self.cfg.seed;
        // Admission runs first, over every tenant at once (levels are
        // a fleet-wide budget decision); the per-tenant loop then
        // dispatches under the assigned level. Admission disabled ⇒
        // no decision is computed at all.
        let decided: Option<(Vec<ServiceLevel>, Vec<bool>)> = self.admission.as_mut().map(|adm| {
            let agents: Vec<usize> = self
                .tenants
                .iter()
                .map(|t| t.last_good.num_agents())
                .collect();
            let ones: Vec<u64>;
            let off: &[u64] = match offered {
                Some(o) => o,
                None => {
                    ones = vec![1; agents.len()];
                    &ones
                }
            };
            let levels = adm.decide(step, off, &agents);
            let forwards = (0..agents.len())
                .map(|t| adm.forward_due(step, t))
                .collect();
            (levels, forwards)
        });
        let mut events: Vec<(usize, FleetEventKind)> = Vec::new();
        let mut out = Vec::with_capacity(self.tenants.len());
        // Flight triggers collected during the tenant loop, dumped
        // after it (dumping needs the whole runtime).
        let mut triggers: Vec<(usize, FlightTrigger)> = Vec::new();
        for (idx, tenant) in self.tenants.iter_mut().enumerate() {
            let (level, forward_due) = match &decided {
                Some((levels, forwards)) => (levels[idx], forwards[idx]),
                None => (ServiceLevel::Full, true),
            };
            if decided.is_some() {
                tenant
                    .archive
                    .record_admission(level, offered.map_or(1, |o| o[idx].max(1)));
                if level.browned_out() != tenant.browned_out {
                    tenant.browned_out = level.browned_out();
                    events.push((
                        idx,
                        if tenant.browned_out {
                            FleetEventKind::BrownoutEnter
                        } else {
                            FleetEventKind::BrownoutExit
                        },
                    ));
                }
                if level.browned_out() {
                    tenant.stats.brownout_steps += 1;
                }
                if level == ServiceLevel::Shed {
                    tenant.stats.shed_steps += 1;
                    events.push((idx, FleetEventKind::Shed));
                }
            }
            let events_before = events.len();
            let t0 = Instant::now();
            let mut step_out = Self::step_tenant(
                tenant,
                idx,
                obs[idx],
                &self.plan,
                seed,
                step,
                level,
                forward_due,
                &mut events,
            );
            let dt = t0.elapsed();
            step_out.level = level;
            step_out.latency = dt;
            tenant.last_actions.clone_from(&step_out.actions);
            tenant.stats.steps += 1;
            tenant.stats.state_steps[step_out.state.index()] += 1;
            if matches!(step_out.served_by, ServedBy::Standby) {
                tenant.stats.standby_steps += 1;
            }
            // Flight recording: strictly observation-only — nothing
            // below feeds back into any decision, so the recorder-on
            // fleet digests bit-identical to recorder-off (pinned).
            if tenant.flight.is_some() {
                let slack_us = match tenant.serve_cfg.deadline {
                    Some(d) => i64::try_from(d.as_micros())
                        .unwrap_or(i64::MAX)
                        .saturating_sub(i64::try_from(dt.as_micros()).unwrap_or(i64::MAX)),
                    None => NO_DEADLINE,
                };
                let frame = FlightFrame {
                    step,
                    obs_digest: obs_digest(obs[idx]),
                    msg_digest: tenant.runtime.last_message_digest(),
                    actions_digest: actions_digest(&step_out.actions),
                    served_by: step_out.served_by.index() as u8,
                    level: level.index() as u8,
                    state: step_out.state.index() as u8,
                    panicked: step_out.panicked,
                    offered: offered.map_or(1, |o| o[idx].max(1)),
                    chaos_mask: self.plan.active_mask(step, idx),
                    slack_us,
                };
                if let Some(rec) = tenant.flight.as_mut() {
                    rec.record(frame);
                }
                // Trigger priority: a panic explains the breaker trip
                // and the quarantine it may have caused this very step,
                // so only the most causal trigger dumps.
                let had = |kind: FleetEventKind| {
                    events[events_before..]
                        .iter()
                        .any(|&(t, k)| t == idx && k == kind)
                };
                let trigger = if step_out.panicked {
                    Some(FlightTrigger::Panic)
                } else if had(FleetEventKind::QuarantineEnter) {
                    Some(FlightTrigger::Quarantine)
                } else if had(FleetEventKind::BreakerOpen) {
                    Some(FlightTrigger::BreakerOpen)
                } else if level == ServiceLevel::Shed
                    && self
                        .admission
                        .as_ref()
                        .is_some_and(|a| a.shed_budget_exhausted(idx))
                {
                    Some(FlightTrigger::ShedCap)
                } else {
                    None
                };
                if let Some(tr) = trigger {
                    triggers.push((idx, tr));
                }
            }
            out.push(step_out);
        }
        for (idx, trigger) in triggers {
            self.auto_dump(idx, trigger, step, &mut events);
        }
        self.step += 1;
        self.emit(step, &events);
        Ok(FleetStep { tenants: out })
    }

    /// One tenant's slice of a fleet step: chaos injection, state
    /// dispatch, crash isolation, supervision bookkeeping.
    ///
    /// Supervision outranks admission: the supervisor's recovery
    /// schedule runs regardless of `level`, and a browned-out step
    /// neither feeds the circuit breaker nor consumes a retry trial
    /// (the policy never ran, so its health was not observed).
    #[allow(clippy::too_many_arguments)]
    fn step_tenant(
        tenant: &mut Tenant,
        idx: usize,
        obs: &[IntersectionObs],
        plan: &InfraChaosPlan,
        seed: u64,
        step: u64,
        level: ServiceLevel,
        forward_due: bool,
        events: &mut Vec<(usize, FleetEventKind)>,
    ) -> TenantStep {
        // Warm standby first: its min-hold counters must advance every
        // step regardless of who answers, so a degraded step continues
        // the plan instead of cold-resetting it.
        let fb_actions = tenant.standby.decide(obs);
        // Latency spikes are injected unconditionally (None clears):
        // the code path is identical with and without a plan, which is
        // what makes the empty plan bit-identical to no plan.
        tenant.runtime.inject_delay(plan.spike(seed, step, idx));
        // Reload storm: commit last step's staged reload (a
        // zero-degradation hot swap — the old policy served every step
        // in between), then stage the next one. Only meaningful for
        // policy-serving tenants with an on-disk checkpoint.
        if tenant.supervisor.state().serves_policy() {
            if tenant.runtime.reload_in_flight() && tenant.runtime.commit_reload().is_ok() {
                tenant.stats.hot_swaps += 1;
                events.push((idx, FleetEventKind::ReloadSwapped));
            }
            if plan.storm_due(step, idx) {
                if let Some(path) = &tenant.checkpoint {
                    if tenant.runtime.begin_reload(path).is_ok() {
                        events.push((idx, FleetEventKind::ReloadStaged));
                    }
                }
            }
        }

        // Whether the admission level lets the policy forward run this
        // step (decimated inference only forwards on its on-steps).
        let policy_due =
            level == ServiceLevel::Full || (level == ServiceLevel::Degraded && forward_due);
        match tenant.supervisor.state() {
            TenantState::Quarantined => {
                if tenant.supervisor.retry_due(step) {
                    Self::attempt_reload(tenant, idx, plan, seed, step, events);
                }
                TenantStep::new(
                    fb_actions,
                    tenant.supervisor.state(),
                    ServedBy::Standby,
                    false,
                )
            }
            TenantState::Degraded => {
                if policy_due && tenant.supervisor.retry_due(step) {
                    tenant.supervisor.begin_trial();
                    Self::policy_step(tenant, idx, obs, fb_actions, plan, seed, step, events)
                } else {
                    TenantStep::new(fb_actions, TenantState::Degraded, ServedBy::Standby, false)
                }
            }
            TenantState::Healthy | TenantState::Recovering => match level {
                _ if policy_due => {
                    Self::policy_step(tenant, idx, obs, fb_actions, plan, seed, step, events)
                }
                ServiceLevel::Standby => TenantStep::new(
                    fb_actions,
                    tenant.supervisor.state(),
                    ServedBy::Standby,
                    false,
                ),
                // A decimated off-step or a shed step: hold the last
                // plan without running any controller (the standby
                // answers only when there is nothing to hold yet).
                _ => Self::held_step(tenant, fb_actions),
            },
        }
    }

    /// Answers with the tenant's previous signal plan without running
    /// any controller; falls back to the standby's actions when no
    /// plan has been handed out yet (or the grid changed shape).
    fn held_step(tenant: &Tenant, fb_actions: Vec<usize>) -> TenantStep {
        let state = tenant.supervisor.state();
        if tenant.last_actions.len() == fb_actions.len() {
            TenantStep::new(tenant.last_actions.clone(), state, ServedBy::Held, false)
        } else {
            TenantStep::new(fb_actions, state, ServedBy::Standby, false)
        }
    }

    /// Runs the tenant's policy under crash isolation and feeds the
    /// breaker with the outcome.
    #[allow(clippy::too_many_arguments)]
    fn policy_step(
        tenant: &mut Tenant,
        idx: usize,
        obs: &[IntersectionObs],
        fb_actions: Vec<usize>,
        plan: &InfraChaosPlan,
        seed: u64,
        step: u64,
        events: &mut Vec<(usize, FleetEventKind)>,
    ) -> TenantStep {
        let was = tenant.supervisor.state();
        let inject_panic = plan.panics(seed, step, idx);
        let runtime = &mut tenant.runtime;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected tenant panic (infra chaos)");
            }
            runtime.serve_step(obs)
        }));
        match result {
            Ok(Ok(served)) => {
                // Deadline overruns are the tenant's soft faults; the
                // runtime's own health/reload degradations are already
                // the fallback ladder doing its job, not breaker food.
                let fault = served
                    .causes
                    .iter()
                    .any(|c| matches!(c, Some(DegradeReason::DeadlineOverrun)));
                if fault {
                    tenant.stats.soft_faults += 1;
                }
                if let Some(state) = tenant.supervisor.record_step(fault, step) {
                    Self::note_transition(tenant, idx, was, state, step, events);
                }
                let state = tenant.supervisor.state();
                // A trip this very step keeps the policy's actions: the
                // forward already ran and answered; standby takes over
                // from the next step.
                TenantStep::new(served.actions, state, ServedBy::Policy, false)
            }
            Ok(Err(_)) => {
                // Typed serve error (e.g. wired to the wrong grid):
                // the standby answers, the breaker counts a fault.
                tenant.stats.soft_faults += 1;
                if let Some(state) = tenant.supervisor.record_step(true, step) {
                    Self::note_transition(tenant, idx, was, state, step, events);
                }
                TenantStep::new(
                    fb_actions,
                    tenant.supervisor.state(),
                    ServedBy::Standby,
                    false,
                )
            }
            Err(_) => {
                tenant.stats.panics += 1;
                let state = tenant.supervisor.record_panic(step);
                Self::note_transition(tenant, idx, was, state, step, events);
                TenantStep::new(fb_actions, state, ServedBy::Standby, true)
            }
        }
    }

    /// One quarantine-recovery reload attempt: load the last good
    /// checkpoint (or clone the in-memory snapshot), rebuild the
    /// runtime, and report the outcome to the supervisor.
    fn attempt_reload(
        tenant: &mut Tenant,
        idx: usize,
        plan: &InfraChaosPlan,
        seed: u64,
        step: u64,
        events: &mut Vec<(usize, FleetEventKind)>,
    ) {
        tenant.stats.reload_attempts += 1;
        let loaded: Result<PolicySnapshot, ServeError> = if plan.corrupts_reload(seed, step, idx) {
            Err(ServeError::Load(TrainError::Load(
                tsc_nn::LoadError::Format("injected reload corruption (infra chaos)".into()),
            )))
        } else if let Some(path) = &tenant.checkpoint {
            Checkpoint::read(path)
                .map_err(TrainError::from)
                .map_err(ServeError::from)
                .and_then(|ck| {
                    tenant
                        .last_good
                        .with_checkpoint(&ck)
                        .map_err(ServeError::from)
                })
        } else {
            Ok(tenant.last_good.clone())
        };
        match loaded {
            Ok(snapshot) => {
                // Retire the untrusted runtime, preserving its
                // telemetry, and start the replacement clean.
                tenant.archive.merge(tenant.runtime.telemetry());
                tenant.runtime = ServeRuntime::new(snapshot.clone(), tenant.serve_cfg);
                tenant.last_good = snapshot;
                let state = tenant.supervisor.reload_result(true, step);
                Self::note_transition(tenant, idx, TenantState::Quarantined, state, step, events);
            }
            Err(_) => {
                tenant.stats.reload_failures += 1;
                tenant.supervisor.reload_result(false, step);
                events.push((idx, FleetEventKind::RecoveryFailed));
            }
        }
    }

    /// Books a supervisor transition into stats + events. `step` feeds
    /// recovery-latency accounting.
    fn note_transition(
        tenant: &mut Tenant,
        idx: usize,
        from: TenantState,
        to: TenantState,
        step: u64,
        events: &mut Vec<(usize, FleetEventKind)>,
    ) {
        match to {
            TenantState::Degraded => {
                tenant.stats.breaker_trips += 1;
                events.push((idx, FleetEventKind::BreakerOpen));
            }
            TenantState::Quarantined => {
                tenant.stats.quarantines += 1;
                if tenant.quarantined_since.is_none() {
                    tenant.quarantined_since = Some(step);
                }
                events.push((idx, FleetEventKind::QuarantineEnter));
            }
            TenantState::Recovering => {
                if from == TenantState::Quarantined {
                    events.push((idx, FleetEventKind::QuarantineExit));
                }
            }
            TenantState::Healthy => {
                tenant.stats.breaker_closes += 1;
                events.push((idx, FleetEventKind::BreakerClose));
                if let Some(since) = tenant.quarantined_since.take() {
                    tenant.stats.recoveries += 1;
                    tenant.stats.recovery_ticks_total += step.saturating_sub(since);
                    events.push((idx, FleetEventKind::RecoveryOk));
                }
            }
        }
    }

    /// Where incident files are written. Without a directory,
    /// incidents are kept in memory only ([`take_incidents`]
    /// (Self::take_incidents)).
    pub fn set_incident_dir(&mut self, dir: PathBuf) {
        self.incident_dir = Some(dir);
    }

    /// Sets the replay context stamped into every incident dumped from
    /// now on — whatever JSON reconstructs this fleet's world
    /// deterministically (scenario text, seed, chaos/load plans,
    /// checkpoint paths). The forensics tool replays incidents from
    /// this context alone.
    pub fn set_replay_context(&mut self, ctx: Json) {
        self.replay_context = ctx;
    }

    /// Drains the in-memory incident tail (oldest first; bounded at
    /// [`MAX_HELD_INCIDENTS`] — older incidents survive only as
    /// files).
    pub fn take_incidents(&mut self) -> Vec<Incident> {
        std::mem::take(&mut self.incidents)
    }

    /// Paths of every incident file written so far, in dump order.
    pub fn incident_paths(&self) -> &[PathBuf] {
        self.incident_paths.as_slice()
    }

    /// Tenant `t`'s flight ring (`None` when recording is disabled).
    pub fn tenant_flight(&self, t: usize) -> Option<&FlightRecorder> {
        self.tenants[t].flight.as_ref()
    }

    /// Tenant `t`'s live serving runtime — read-only, for forensics
    /// (message-plane digests, causal partner maps).
    pub fn tenant_runtime(&self, t: usize) -> &ServeRuntime {
        &self.tenants[t].runtime
    }

    /// Explicitly dumps tenant `t`'s flight ring as a
    /// [`FlightTrigger::Snapshot`] incident, bypassing the
    /// automatic-dump cooldown. Returns the incident (`None` when
    /// recording is disabled), writes the file when an incident
    /// directory is set, and emits an `IncidentDumped` event.
    pub fn snapshot(&mut self, t: usize) -> Option<Incident> {
        let step = self.step;
        let inc = self.dump(t, FlightTrigger::Snapshot, step)?;
        self.emit(step, &[(t, FleetEventKind::IncidentDumped)]);
        Some(inc)
    }

    /// Aggregated flight-recorder health for live exposition.
    pub fn flight_health(&self) -> FlightHealth {
        let mut h = FlightHealth {
            enabled: self.cfg.flight.is_some(),
            incidents_dumped: self.incidents_dumped,
            last_trigger: self.last_trigger,
            ..FlightHealth::default()
        };
        for t in &self.tenants {
            if let Some(rec) = &t.flight {
                h.frames_recorded += rec.recorded();
                h.frames_dropped += rec.dropped();
            }
        }
        h
    }

    /// A live observability snapshot: the Prometheus text page
    /// (fleet counters plus per-tenant series with escaped labels) and
    /// the same content as structured JSON. Pure read — serving is
    /// untouched. Benches write this alongside every `BENCH_*.json`.
    pub fn exposition(&self) -> FleetExposition {
        let health = self.flight_health();
        let mut reg = MetricsRegistry::new();
        reg.add("fleet.steps", self.step);
        reg.add("fleet.tenants", self.tenants.len() as u64);
        reg.add("fleet.flight.frames_recorded", health.frames_recorded);
        reg.add("fleet.flight.frames_dropped", health.frames_dropped);
        reg.add("fleet.flight.incidents_dumped", health.incidents_dumped);
        reg.set_gauge(
            "fleet.flight.enabled",
            if health.enabled { 1.0 } else { 0.0 },
        );
        let mut prom = reg.to_prometheus();
        let mut tenants_json = Vec::new();
        prom.push_str("# TYPE fleet_tenant_steps counter\n");
        for t in self.tenants.iter() {
            use std::fmt::Write as _;
            let label = escape_label_value(&t.name);
            let _ = writeln!(
                prom,
                "fleet_tenant_steps{{tenant=\"{label}\"}} {}",
                t.stats.steps
            );
            let _ = writeln!(
                prom,
                "fleet_tenant_panics{{tenant=\"{label}\"}} {}",
                t.stats.panics
            );
            let _ = writeln!(
                prom,
                "fleet_tenant_quarantines{{tenant=\"{label}\"}} {}",
                t.stats.quarantines
            );
            let _ = writeln!(
                prom,
                "fleet_tenant_standby_steps{{tenant=\"{label}\"}} {}",
                t.stats.standby_steps
            );
            let _ = writeln!(
                prom,
                "fleet_tenant_shed_steps{{tenant=\"{label}\"}} {}",
                t.stats.shed_steps
            );
            let _ = writeln!(
                prom,
                "fleet_tenant_state{{tenant=\"{label}\"}} {}",
                t.supervisor.state().index()
            );
            let (rec, drop) = t
                .flight
                .as_ref()
                .map_or((0, 0), |r| (r.recorded(), r.dropped()));
            tenants_json.push(Json::obj([
                ("name", Json::str(&t.name)),
                ("state", Json::num(t.supervisor.state().index() as f64)),
                ("steps", Json::num(t.stats.steps as f64)),
                ("panics", Json::num(t.stats.panics as f64)),
                ("quarantines", Json::num(t.stats.quarantines as f64)),
                ("standby_steps", Json::num(t.stats.standby_steps as f64)),
                ("brownout_steps", Json::num(t.stats.brownout_steps as f64)),
                ("shed_steps", Json::num(t.stats.shed_steps as f64)),
                ("flight_recorded", Json::num(rec as f64)),
                ("flight_dropped", Json::num(drop as f64)),
            ]));
        }
        let last = match health.last_trigger {
            Some((t, tr, s)) => Json::obj([
                ("tenant", Json::num(t as f64)),
                ("trigger", Json::str(tr.as_str())),
                ("step", Json::num(s as f64)),
            ]),
            None => Json::Null,
        };
        let summary = Json::obj([
            ("steps", Json::num(self.step as f64)),
            ("tenants", Json::Arr(tenants_json)),
            (
                "flight",
                Json::obj([
                    ("enabled", Json::Bool(health.enabled)),
                    ("frames_recorded", Json::num(health.frames_recorded as f64)),
                    ("frames_dropped", Json::num(health.frames_dropped as f64)),
                    (
                        "incidents_dumped",
                        Json::num(health.incidents_dumped as f64),
                    ),
                    ("last_trigger", last),
                ]),
            ),
        ]);
        FleetExposition {
            prometheus: prom,
            summary,
        }
    }

    /// An automatic (trigger-driven) dump: applies the per-tenant
    /// cooldown, then dumps and books the `IncidentDumped` event.
    fn auto_dump(
        &mut self,
        idx: usize,
        trigger: FlightTrigger,
        step: u64,
        events: &mut Vec<(usize, FleetEventKind)>,
    ) {
        let Some(fc) = self.cfg.flight else { return };
        if let Some(last) = self.tenants[idx].last_dump_step {
            if step.saturating_sub(last) < fc.cooldown {
                return;
            }
        }
        if self.dump(idx, trigger, step).is_some() {
            events.push((idx, FleetEventKind::IncidentDumped));
        }
    }

    /// Dumps tenant `idx`'s ring as an incident: held in memory
    /// (bounded), written to the incident directory when one is set
    /// (write failures are reported on stderr, never fatal).
    fn dump(&mut self, idx: usize, trigger: FlightTrigger, step: u64) -> Option<Incident> {
        let tenant = &mut self.tenants[idx];
        let rec = tenant.flight.as_ref()?;
        let incident = Incident {
            tenant: idx,
            tenant_name: tenant.name.clone(),
            trigger,
            step,
            replay: self.replay_context.clone(),
            frames: rec.frames(),
        };
        tenant.last_dump_step = Some(step);
        self.incidents_dumped += 1;
        self.last_trigger = Some((idx, trigger, step));
        if let Some(dir) = &self.incident_dir {
            let path = dir.join(format!(
                "incident-t{idx}-step{step}-{}.jsonl",
                trigger.as_str()
            ));
            match write_incident(&path, &incident) {
                Ok(()) => self.incident_paths.push(path),
                Err(e) => eprintln!("tsc-serve: incident dump failed at {}: {e}", path.display()),
            }
        }
        if self.incidents.len() >= MAX_HELD_INCIDENTS {
            self.incidents.remove(0);
        }
        self.incidents.push(incident.clone());
        Some(incident)
    }

    /// Writes the step's lifecycle events to the attached sink, if
    /// any. Out-of-band by construction: called after all supervision
    /// decisions are made.
    fn emit(&mut self, step: u64, events: &[(usize, FleetEventKind)]) {
        let Some(sink) = self.obs_sink.as_mut() else {
            return;
        };
        for &(idx, kind) in events {
            let record = fleet_event(step, idx, &self.tenants[idx].name, kind);
            if let Err(e) = sink.emit(&record) {
                eprintln!(
                    "tsc-obs: fleet event logging disabled after write failure on {}: {e}",
                    sink.path().display()
                );
                self.obs_sink = None;
                return;
            }
        }
    }
}
