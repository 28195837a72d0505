//! SLA-aware admission control for the serving fleet: deterministic
//! shedding, backpressure, and a brownout ladder.
//!
//! ## Why
//!
//! A fleet that keeps accepting work past its capacity misses *every*
//! tenant's deadline; one that sheds arbitrarily breaks its contracts
//! with the tenants that paid for guarantees. The admission layer sits
//! between the offered load and the per-tenant serving path and makes
//! the trade explicit: every tenant carries an [`SlaClass`] (priority,
//! SLA latency target, a hard cap on how often it may be shed), and
//! every fleet step the [`Admission`] controller assigns each tenant a
//! [`ServiceLevel`] on the brownout ladder:
//!
//! 1. [`Full`](ServiceLevel::Full) — batched policy inference, exactly
//!    as without admission control;
//! 2. [`Degraded`](ServiceLevel::Degraded) — *decimated* inference:
//!    the policy forward runs every other step (phase-offset per
//!    tenant by a hash, so decimated tenants interleave) and the
//!    previous signal plan is held in between — roughly half the
//!    inference cost;
//! 3. [`Standby`](ServiceLevel::Standby) — the warm-standby
//!    MaxPressure controller answers; no network forward at all;
//! 4. [`Shed`](ServiceLevel::Shed) — the request is refused: the
//!    intersection holds its previous phase plan, no controller runs.
//!
//! ## Determinism contract
//!
//! The controller follows the chaos engine's discipline: every
//! decision is a pure function of `(seed, step, offered load, config)`
//! plus two monotone per-tenant counters (steps seen, steps shed).
//! There is no RNG state and no wall-clock input, so:
//!
//! * **no overload ⇒ identity**: while the offered load fits the
//!   configured capacity every tenant is `Full`, bit-identical to a
//!   fleet without admission control (and `capacity: None` disables
//!   the layer outright);
//! * **replay**: the same `(seed, load program, SLA config)` produces
//!   the same level sequence bit-for-bit.
//!
//! Ties between equal-priority tenants are broken by a splitmix64 hash
//! of `(seed, step, tenant)`, so sustained overload rotates the pain
//! across the class instead of starving the highest tenant index.
//!
//! ## The shed-rate guarantee
//!
//! [`SlaClass::max_shed_rate`] is a hard bound, not a target: a tenant
//! is only shed when `(shed so far + 1) / (steps so far + 1)` stays at
//! or under its cap, otherwise it is served at `Standby` even if that
//! overcommits the step's budget. The property test in
//! `tests/admission.rs` drives random load programs against random SLA
//! configs and asserts the running shed ratio never exceeds the cap at
//! any prefix.

use tsc_obs::Json;
use tsc_sim::chaos::{chaos_uniform, fault_salt};
use tsc_sim::Window;

use crate::infra_chaos::{
    tenant_sel_from_json, tenant_sel_to_json, window_from_json, window_to_json, TenantSel,
};

/// Salt decorrelating admission tie-break draws from the infra-chaos
/// and road-chaos streams of the same user seed.
const ADMISSION_SALT: u64 = 0x5eed_ab1e_0f00_d5c4;

/// Salt for the load program's burst-jitter draws.
const LOAD_SALT: u64 = 0x10ad_9e4e_7a70_44c1;

/// Budget cost divisor of [`ServiceLevel::Degraded`] (decimated
/// inference runs the forward every other step).
const DEGRADED_DIV: u64 = 2;

/// Budget cost divisor of [`ServiceLevel::Standby`] (MaxPressure is
/// arithmetic over queue lengths — far cheaper than a forward, not
/// free).
const STANDBY_DIV: u64 = 8;

/// One tenant's service-level agreement with the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaClass {
    /// Admission priority: higher keeps full service longer under
    /// overload. Equal priorities share the pain via hash rotation.
    pub priority: u8,
    /// SLA latency target in microseconds for goodput accounting (a
    /// served step landing over this budget is throughput but not
    /// goodput). `0` means no latency target.
    pub deadline_us: u64,
    /// Hard cap on the long-run fraction of this tenant's steps that
    /// may be shed. `0.0` (the default) means the tenant is never
    /// shed — at worst it is parked at [`ServiceLevel::Standby`].
    pub max_shed_rate: f64,
}

impl Default for SlaClass {
    fn default() -> Self {
        SlaClass {
            priority: 0,
            deadline_us: 0,
            max_shed_rate: 0.0,
        }
    }
}

impl SlaClass {
    /// The class as a JSON object (incident replay context).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("priority", Json::num(f64::from(self.priority))),
            ("deadline_us", Json::num(self.deadline_us as f64)),
            ("max_shed_rate", Json::num(self.max_shed_rate)),
        ])
    }

    /// Parses [`to_json`](Self::to_json) output.
    pub fn from_json(j: &Json) -> Option<SlaClass> {
        Some(SlaClass {
            priority: j.get_num("priority")? as u8,
            deadline_us: j.get_num("deadline_us")? as u64,
            max_shed_rate: j.get_num("max_shed_rate")?,
        })
    }
}

/// Fleet-wide admission knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Aggregate budget per fleet step, in agent-decisions at full
    /// service: a tenant with `A` agents offered `k` requests costs
    /// `k·A` at `Full`, `⌈k·A/2⌉` at `Degraded`, `⌈k·A/8⌉` at
    /// `Standby`, `0` at `Shed`. While the total full-service demand
    /// fits, every tenant is `Full`.
    pub capacity: u64,
}

/// Where a tenant sits on the brownout ladder this step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceLevel {
    /// Full batched policy inference — identical to no admission.
    Full,
    /// Decimated inference: the forward runs every other step, the
    /// previous plan is held in between.
    Degraded,
    /// Warm-standby MaxPressure answers; no forward.
    Standby,
    /// Refused: the previous plan is held, no controller runs.
    Shed,
}

impl ServiceLevel {
    /// Number of levels (telemetry array size).
    pub const COUNT: usize = 4;
    /// Every level, in [`index`](Self::index) order (least to most
    /// degraded).
    pub const ALL: [ServiceLevel; ServiceLevel::COUNT] = [
        ServiceLevel::Full,
        ServiceLevel::Degraded,
        ServiceLevel::Standby,
        ServiceLevel::Shed,
    ];

    /// Stable dense index for telemetry arrays.
    pub fn index(self) -> usize {
        match self {
            ServiceLevel::Full => 0,
            ServiceLevel::Degraded => 1,
            ServiceLevel::Standby => 2,
            ServiceLevel::Shed => 3,
        }
    }

    /// Whether this level runs the tenant's policy at all.
    pub fn runs_policy(self) -> bool {
        matches!(self, ServiceLevel::Full | ServiceLevel::Degraded)
    }

    /// Whether this level is below full service (brownout or shed).
    pub fn browned_out(self) -> bool {
        self != ServiceLevel::Full
    }
}

/// The per-step admission controller of one fleet. Holds only the
/// monotone counters backing the shed-rate guarantee; every decision
/// is otherwise a pure function of its inputs.
#[derive(Debug, Clone)]
pub struct Admission {
    cfg: AdmissionConfig,
    classes: Vec<SlaClass>,
    seed: u64,
    /// Admission steps seen per tenant.
    steps: Vec<u64>,
    /// Steps shed per tenant (the numerator of the shed-rate bound).
    shed: Vec<u64>,
    /// Scratch: tenant order of the current step (priority desc, hash
    /// tie-break).
    order: Vec<usize>,
}

impl Admission {
    /// A controller for `classes.len()` tenants under `cfg`, keyed by
    /// `seed` (tie-break rotation).
    pub fn new(cfg: AdmissionConfig, classes: Vec<SlaClass>, seed: u64) -> Self {
        let n = classes.len();
        Admission {
            cfg,
            classes,
            seed,
            steps: vec![0; n],
            shed: vec![0; n],
            order: (0..n).collect(),
        }
    }

    /// The SLA classes, in tenant order.
    pub fn classes(&self) -> &[SlaClass] {
        &self.classes
    }

    /// Steps shed so far for tenant `t`.
    pub fn shed_steps(&self, t: usize) -> u64 {
        self.shed[t]
    }

    /// Admission steps seen so far for tenant `t`.
    pub fn steps(&self, t: usize) -> u64 {
        self.steps[t]
    }

    /// Whether tenant `t`'s shed budget is exhausted: shedding it once
    /// more would violate its max-shed-rate cap (the flight recorder's
    /// shed-cap incident trigger).
    pub fn shed_budget_exhausted(&self, t: usize) -> bool {
        !self.may_shed(t)
    }

    /// Whether shedding tenant `t` once more would still respect its
    /// max-shed-rate cap.
    fn may_shed(&self, t: usize) -> bool {
        let cap = self.classes[t].max_shed_rate;
        cap > 0.0 && (self.shed[t] + 1) as f64 <= cap * (self.steps[t] + 1) as f64
    }

    /// Assigns every tenant a service level for fleet step `step`.
    /// `offered[t]` is tenant `t`'s offered load in requests (clamped
    /// to ≥ 1 — the grid needs an answer every step) and `agents[t]`
    /// its grid size. Deterministic in `(seed, step, offered, config)`
    /// and the controller's counters; updates the counters.
    ///
    /// # Panics
    ///
    /// Panics if `offered` or `agents` do not match the tenant count
    /// (the fleet validates its inputs before calling in).
    pub fn decide(&mut self, step: u64, offered: &[u64], agents: &[usize]) -> Vec<ServiceLevel> {
        let n = self.classes.len();
        assert_eq!(offered.len(), n, "offered load per tenant");
        assert_eq!(agents.len(), n, "agent count per tenant");
        let cost_full = |t: usize| -> u64 { offered[t].max(1).saturating_mul(agents[t] as u64) };
        let demand: u64 = (0..n).map(&cost_full).fold(0, u64::saturating_add);
        let mut levels = vec![ServiceLevel::Full; n];
        if demand > self.cfg.capacity {
            // Most important first; equal priority rotates by hash so
            // sustained overload spreads across the class.
            let (seed, classes) = (self.seed, &self.classes);
            self.order.sort_by_key(|&t| {
                let tie = chaos_uniform(fault_salt(seed ^ ADMISSION_SALT, t), clamp_step(step), t);
                (std::cmp::Reverse(classes[t].priority), FloatOrd(tie))
            });
            let mut remaining = self.cfg.capacity;
            for &t in &self.order {
                let full = cost_full(t);
                let degraded = full.div_ceil(DEGRADED_DIV);
                let standby = full.div_ceil(STANDBY_DIV);
                let level = if full <= remaining {
                    ServiceLevel::Full
                } else if degraded <= remaining {
                    ServiceLevel::Degraded
                } else if standby <= remaining || !self.may_shed(t) {
                    // The shed cap is a hard guarantee: a tenant that
                    // cannot be shed is served at Standby even when
                    // that overcommits the budget.
                    ServiceLevel::Standby
                } else {
                    ServiceLevel::Shed
                };
                remaining = remaining.saturating_sub(match level {
                    ServiceLevel::Full => full,
                    ServiceLevel::Degraded => degraded,
                    ServiceLevel::Standby => standby,
                    ServiceLevel::Shed => 0,
                });
                levels[t] = level;
            }
        }
        for (t, &level) in levels.iter().enumerate() {
            self.steps[t] += 1;
            if level == ServiceLevel::Shed {
                self.shed[t] += 1;
            }
        }
        levels
    }

    /// Whether a `Degraded` tenant's decimated forward runs at `step`
    /// (the off-steps hold the previous plan). Phase-offset per tenant
    /// by a seed hash so decimated tenants interleave instead of all
    /// skipping the same steps.
    pub fn forward_due(&self, step: u64, tenant: usize) -> bool {
        let phase = fault_salt(self.seed ^ ADMISSION_SALT, tenant) & 1;
        (step + phase).is_multiple_of(2)
    }
}

/// Total-order wrapper so a hash draw can key a sort (the draws come
/// from `chaos_uniform`, which never yields NaN).
#[derive(PartialEq, PartialOrd)]
struct FloatOrd(f64);

impl Eq for FloatOrd {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for FloatOrd {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("chaos draws are finite")
    }
}

/// One phase of an open-loop load program: inside `window`, targeted
/// tenants are offered `base` extra requests per step plus a hash
/// burst in `0..=jitter`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPhase {
    /// When the phase is active (fleet decision steps).
    pub window: Window,
    /// Which tenants it loads.
    pub tenants: TenantSel,
    /// Offered requests per step while active.
    pub base: u64,
    /// Extra burst requests, drawn uniformly in `0..=jitter` from a
    /// splitmix64 hash of `(seed, phase index, step, tenant)`.
    pub jitter: u64,
}

/// A deterministic open-loop load program: the offered-load side of
/// the determinism contract. Same `(seed, plan)` ⇒ same offered-load
/// sequence, bit for bit; with no phase active a tenant is offered
/// exactly one request (the no-overload baseline).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadPlan {
    phases: Vec<LoadPhase>,
}

impl LoadPlan {
    /// An empty program: every tenant offered 1 request per step.
    pub fn new() -> Self {
        LoadPlan::default()
    }

    /// Adds a phase offering `base` requests/step (+ hash burst up to
    /// `jitter`) to targeted tenants during `window`.
    pub fn phase(mut self, window: Window, tenants: TenantSel, base: u64, jitter: u64) -> Self {
        self.phases.push(LoadPhase {
            window,
            tenants,
            base,
            jitter,
        });
        self
    }

    /// The scheduled phases.
    pub fn phases(&self) -> &[LoadPhase] {
        &self.phases
    }

    /// Offered requests for `tenant` at `step` under `seed`: the sum
    /// of all active phases, or 1 when none is active.
    pub fn offered(&self, seed: u64, step: u64, tenant: usize) -> u64 {
        let s = clamp_step(step);
        let mut total = 0u64;
        let mut active = false;
        for (idx, p) in self.phases.iter().enumerate() {
            if p.window.contains(s) && p.tenants.matches(tenant) {
                active = true;
                let burst = if p.jitter > 0 {
                    let draw = chaos_uniform(fault_salt(seed ^ LOAD_SALT, idx), s, tenant);
                    // draw ∈ [0, 1): scales to 0..=jitter inclusive.
                    (draw * p.jitter.saturating_add(1) as f64) as u64
                } else {
                    0
                };
                total = total.saturating_add(p.base).saturating_add(burst);
            }
        }
        if active {
            total
        } else {
            1
        }
    }

    /// The offered load of every tenant at `step`, in tenant order.
    pub fn offered_all(&self, seed: u64, step: u64, tenants: usize) -> Vec<u64> {
        (0..tenants).map(|t| self.offered(seed, step, t)).collect()
    }

    /// The program as a JSON array of phases (incident replay
    /// context). [`from_json`](Self::from_json) round-trips it.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.phases
                .iter()
                .map(|p| {
                    Json::obj([
                        ("window", window_to_json(p.window)),
                        ("tenants", tenant_sel_to_json(p.tenants)),
                        ("base", Json::num(p.base as f64)),
                        ("jitter", Json::num(p.jitter as f64)),
                    ])
                })
                .collect(),
        )
    }

    /// Parses [`to_json`](Self::to_json) output. `None` on shape
    /// mismatch.
    pub fn from_json(j: &Json) -> Option<LoadPlan> {
        let Json::Arr(items) = j else { return None };
        let mut phases = Vec::with_capacity(items.len());
        for item in items {
            phases.push(LoadPhase {
                window: window_from_json(item.get("window")?)?,
                tenants: tenant_sel_from_json(item.get("tenants")?)?,
                base: item.get_num("base")? as u64,
                jitter: item.get_num("jitter")? as u64,
            });
        }
        Some(LoadPlan { phases })
    }
}

/// Fleet steps are `u64`; windows reuse the chaos engine's `u32`
/// [`Window`] (see `infra_chaos::clamp_step` for the rationale).
fn clamp_step(step: u64) -> u32 {
    u32::try_from(step).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classes(prio: &[u8]) -> Vec<SlaClass> {
        prio.iter()
            .map(|&priority| SlaClass {
                priority,
                max_shed_rate: 1.0,
                ..Default::default()
            })
            .collect()
    }

    #[test]
    fn under_capacity_everyone_is_full() {
        let mut a = Admission::new(AdmissionConfig { capacity: 100 }, classes(&[0, 1, 2]), 7);
        for step in 0..20 {
            let levels = a.decide(step, &[1, 1, 1], &[4, 9, 4]);
            assert!(levels.iter().all(|l| *l == ServiceLevel::Full));
        }
        assert_eq!(a.shed_steps(0), 0);
    }

    #[test]
    fn overload_degrades_lowest_priority_first() {
        // Demand 3×4 = 12 at 4× load = 48; capacity 30 fits two full
        // (32 > 30, so one full + one degraded + ...).
        let mut a = Admission::new(AdmissionConfig { capacity: 20 }, classes(&[2, 1, 0]), 7);
        let levels = a.decide(0, &[4, 4, 4], &[4, 4, 4]);
        assert_eq!(levels[0], ServiceLevel::Full, "gold keeps full service");
        assert!(levels[2].browned_out(), "bronze browns out first");
        assert!(
            levels[2].index() >= levels[1].index(),
            "bronze no better off than silver: {levels:?}"
        );
    }

    #[test]
    fn zero_shed_rate_is_never_shed_even_at_extreme_overload() {
        let cls = vec![
            SlaClass {
                priority: 0,
                max_shed_rate: 0.0,
                ..Default::default()
            };
            3
        ];
        let mut a = Admission::new(AdmissionConfig { capacity: 1 }, cls, 3);
        for step in 0..200 {
            let levels = a.decide(step, &[1000, 1000, 1000], &[9, 9, 9]);
            assert!(
                levels.iter().all(|l| *l != ServiceLevel::Shed),
                "step {step}: {levels:?}"
            );
        }
    }

    #[test]
    fn shed_ratio_respects_the_cap_at_every_prefix() {
        let cap = 0.25;
        let cls = vec![
            SlaClass {
                priority: 0,
                max_shed_rate: cap,
                ..Default::default()
            };
            2
        ];
        let mut a = Admission::new(AdmissionConfig { capacity: 1 }, cls, 11);
        for step in 0..500 {
            a.decide(step, &[100, 100], &[16, 16]);
            for t in 0..2 {
                let ratio = a.shed_steps(t) as f64 / a.steps(t).max(1) as f64;
                assert!(
                    ratio <= cap + 1e-12,
                    "tenant {t} step {step}: {ratio} > {cap}"
                );
            }
        }
        // The cap is also actually used: sustained extreme overload
        // sheds close to the allowance.
        assert!(a.shed_steps(0) + a.shed_steps(1) > 100);
    }

    #[test]
    fn decisions_replay_bit_for_bit_and_rotate_with_the_seed() {
        let run = |seed: u64| -> Vec<Vec<ServiceLevel>> {
            let mut a = Admission::new(AdmissionConfig { capacity: 10 }, classes(&[1, 1, 1]), seed);
            (0..64)
                .map(|s| a.decide(s, &[3, 3, 3], &[4, 4, 4]))
                .collect()
        };
        assert_eq!(run(5), run(5), "bit-for-bit replay");
        assert_ne!(run(5), run(6), "seed rotates the tie-break");
    }

    #[test]
    fn equal_priority_overload_rotates_rather_than_starves() {
        let mut a = Admission::new(AdmissionConfig { capacity: 6 }, classes(&[1, 1, 1]), 9);
        let mut full_steps = [0u64; 3];
        for step in 0..300 {
            let levels = a.decide(step, &[1, 1, 1], &[4, 4, 4]);
            for (t, l) in levels.iter().enumerate() {
                if *l == ServiceLevel::Full {
                    full_steps[t] += 1;
                }
            }
        }
        // Capacity fits one full tenant per step; the hash tie-break
        // must hand it around, not pin it to one index.
        for (t, &f) in full_steps.iter().enumerate() {
            assert!(f > 30, "tenant {t} starved of full service: {full_steps:?}");
        }
    }

    #[test]
    fn forward_due_decimates_at_half_rate_with_tenant_phase_offsets() {
        let a = Admission::new(AdmissionConfig { capacity: 1 }, classes(&[0, 0, 0, 0]), 4);
        for t in 0..4 {
            let due: Vec<bool> = (0..10).map(|s| a.forward_due(s, t)).collect();
            assert_eq!(due.iter().filter(|&&d| d).count(), 5, "half rate");
            // Strict alternation.
            for w in due.windows(2) {
                assert_ne!(w[0], w[1]);
            }
        }
    }

    #[test]
    fn load_plan_offers_one_outside_phases_and_sums_inside() {
        let plan = LoadPlan::new()
            .phase(Window::new(10, 20), TenantSel::All, 4, 0)
            .phase(Window::new(15, 20), TenantSel::One(1), 2, 0);
        assert_eq!(plan.offered(0, 5, 0), 1, "idle baseline");
        assert_eq!(plan.offered(0, 12, 0), 4);
        assert_eq!(plan.offered(0, 16, 1), 6, "phases sum");
        assert_eq!(plan.offered(0, 25, 1), 1, "window closed");
    }

    #[test]
    fn load_bursts_are_deterministic_bounded_and_seeded() {
        let plan = LoadPlan::new().phase(Window::always(), TenantSel::All, 5, 3);
        let trace = |seed: u64| -> Vec<u64> { (0..64).map(|s| plan.offered(seed, s, 2)).collect() };
        assert_eq!(trace(1), trace(1));
        assert_ne!(trace(1), trace(2));
        assert!(trace(1).iter().all(|&o| (5..=8).contains(&o)));
        // The full jitter range is actually reachable.
        assert!(trace(1).contains(&5));
        assert!(trace(1).contains(&8));
        // An incident file's `"jitter": 1e30` parses to u64::MAX; the
        // burst saturates instead of overflowing.
        let hostile = LoadPlan::new().phase(Window::always(), TenantSel::All, 5, u64::MAX);
        assert!((0..64).all(|s| hostile.offered(1, s, 2) >= 5));
    }

    #[test]
    fn load_plan_and_sla_json_round_trip() {
        let plan = LoadPlan::new()
            .phase(Window::new(10, 20), TenantSel::All, 4, 3)
            .phase(Window::always(), TenantSel::One(2), 9, 0);
        let text = plan.to_json().compact();
        let back = LoadPlan::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, plan);
        assert_eq!(
            LoadPlan::from_json(&LoadPlan::new().to_json()),
            Some(LoadPlan::new())
        );
        let sla = SlaClass {
            priority: 3,
            deadline_us: 1500,
            max_shed_rate: 0.25,
        };
        assert_eq!(SlaClass::from_json(&sla.to_json()), Some(sla));
    }

    #[test]
    fn service_level_indices_are_dense_and_ordered() {
        for (i, l) in ServiceLevel::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
        assert!(ServiceLevel::Full.runs_policy());
        assert!(ServiceLevel::Degraded.runs_policy());
        assert!(!ServiceLevel::Standby.runs_policy());
        assert!(!ServiceLevel::Shed.runs_policy());
        assert!(!ServiceLevel::Full.browned_out());
        assert!(ServiceLevel::Shed.browned_out());
    }
}
