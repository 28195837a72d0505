//! Serving telemetry: decision throughput, latency percentiles, and
//! fallback accounting — all recorded with zero per-step allocation.
//!
//! Latencies go into a [`tsc_obs::Histogram`] — the workspace-wide
//! mergeable streaming histogram (64 log-spaced buckets, 1 µs … ≈1.2 s
//! at ×1.25) — so serve-side latency distributions can be merged with,
//! and exported alongside, every other histogram in the observability
//! layer. Percentiles are read off the cumulative bucket counts, so
//! [`record`](ServeTelemetry::record) is a handful of integer
//! operations no matter how long the runtime serves.

use std::time::Duration;

use tsc_obs::Histogram;

use crate::admission::ServiceLevel;
use crate::engine::DegradeReason;

/// Streaming serving metrics. Create with [`ServeTelemetry::new`],
/// feed with [`record`](ServeTelemetry::record) once per served step
/// (and, on fleets with admission control, with
/// [`record_admission`](ServeTelemetry::record_admission) once per
/// admission decision).
#[derive(Debug, Clone)]
pub struct ServeTelemetry {
    latency: Histogram,
    decisions: u64,
    fallback_decisions: u64,
    degraded_steps: u64,
    per_agent_fallbacks: Vec<u64>,
    /// Per agent, fallback decisions broken down by [`DegradeReason`]
    /// (indexed by [`DegradeReason::index`]).
    per_agent_causes: Vec<[u64; DegradeReason::COUNT]>,
    /// Admission decisions by brownout-ladder rung (indexed by
    /// [`ServiceLevel::index`]); all zero without admission control.
    level_steps: [u64; ServiceLevel::COUNT],
    /// Requests offered to the admission controller (saturating:
    /// offered load is caller input).
    offered_requests: u64,
    /// Offered requests refused by shedding (saturating).
    shed_requests: u64,
}

impl ServeTelemetry {
    /// Empty telemetry for a grid of `num_agents` intersections.
    pub fn new(num_agents: usize) -> Self {
        ServeTelemetry {
            latency: Histogram::new(),
            decisions: 0,
            fallback_decisions: 0,
            degraded_steps: 0,
            per_agent_fallbacks: vec![0; num_agents],
            per_agent_causes: vec![[0; DegradeReason::COUNT]; num_agents],
            level_steps: [0; ServiceLevel::COUNT],
            offered_requests: 0,
            shed_requests: 0,
        }
    }

    /// Records one served step: its wall-clock latency, which agents
    /// fell back to the degraded controller and why (`None` = served
    /// by the policy), and whether the step as a whole was degraded.
    /// Allocation-free.
    pub fn record(&mut self, latency: Duration, causes: &[Option<DegradeReason>], degraded: bool) {
        self.latency.record(latency);
        self.decisions += causes.len() as u64;
        if degraded {
            self.degraded_steps += 1;
        }
        for (a, cause) in causes.iter().enumerate() {
            if let Some(reason) = cause {
                self.fallback_decisions += 1;
                if let Some(slot) = self.per_agent_fallbacks.get_mut(a) {
                    *slot += 1;
                }
                if let Some(slots) = self.per_agent_causes.get_mut(a) {
                    slots[reason.index()] += 1;
                }
            }
        }
    }

    /// Records one admission decision: the service level assigned and
    /// the requests offered (all of which count as shed when the level
    /// is [`ServiceLevel::Shed`]). Allocation-free.
    pub fn record_admission(&mut self, level: ServiceLevel, offered: u64) {
        self.level_steps[level.index()] += 1;
        self.offered_requests = self.offered_requests.saturating_add(offered);
        if level == ServiceLevel::Shed {
            self.shed_requests = self.shed_requests.saturating_add(offered);
        }
    }

    /// Folds another runtime's telemetry into this one (histograms
    /// merge bucket-wise; agent breakdowns require equal grid sizes).
    ///
    /// # Panics
    ///
    /// Panics if the two sides track different numbers of agents.
    pub fn merge(&mut self, other: &ServeTelemetry) {
        assert_eq!(
            self.per_agent_fallbacks.len(),
            other.per_agent_fallbacks.len(),
            "merging telemetry from different grid sizes"
        );
        self.latency.merge(&other.latency);
        self.decisions += other.decisions;
        self.fallback_decisions += other.fallback_decisions;
        self.degraded_steps += other.degraded_steps;
        for (slot, o) in self.level_steps.iter_mut().zip(&other.level_steps) {
            *slot += o;
        }
        self.offered_requests = self.offered_requests.saturating_add(other.offered_requests);
        self.shed_requests = self.shed_requests.saturating_add(other.shed_requests);
        for (slot, o) in self
            .per_agent_fallbacks
            .iter_mut()
            .zip(&other.per_agent_fallbacks)
        {
            *slot += o;
        }
        for (slots, os) in self
            .per_agent_causes
            .iter_mut()
            .zip(&other.per_agent_causes)
        {
            for (slot, o) in slots.iter_mut().zip(os) {
                *slot += o;
            }
        }
    }

    /// The step-latency histogram (for export through the
    /// observability layer).
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency
    }

    /// Steps served so far.
    pub fn steps(&self) -> u64 {
        self.latency.count()
    }

    /// Per-agent decisions issued so far (steps × agents).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Decisions answered by the degraded (MaxPressure) controller.
    pub fn fallback_decisions(&self) -> u64 {
        self.fallback_decisions
    }

    /// Steps where at least the degradation path was engaged.
    pub fn degraded_steps(&self) -> u64 {
        self.degraded_steps
    }

    /// Fallback decision count per agent, in agent order.
    pub fn per_agent_fallbacks(&self) -> &[u64] {
        &self.per_agent_fallbacks
    }

    /// Per-agent fallback decisions broken down by cause, indexed by
    /// [`DegradeReason::index`] (see [`DegradeReason::ALL`] for the
    /// order).
    pub fn per_agent_causes(&self) -> &[[u64; DegradeReason::COUNT]] {
        &self.per_agent_causes
    }

    /// Admission decisions per brownout-ladder rung, indexed by
    /// [`ServiceLevel::index`] (see [`ServiceLevel::ALL`] for the
    /// order). All zero without admission control.
    pub fn level_steps(&self) -> &[u64; ServiceLevel::COUNT] {
        &self.level_steps
    }

    /// Admission decisions for one service level.
    pub fn steps_at(&self, level: ServiceLevel) -> u64 {
        self.level_steps[level.index()]
    }

    /// Requests offered to the admission controller so far.
    pub fn offered_requests(&self) -> u64 {
        self.offered_requests
    }

    /// Offered requests refused by shedding.
    pub fn shed_requests(&self) -> u64 {
        self.shed_requests
    }

    /// Fraction of offered requests that were shed (0 when nothing
    /// was offered).
    pub fn shed_rate(&self) -> f64 {
        if self.offered_requests == 0 {
            0.0
        } else {
            self.shed_requests as f64 / self.offered_requests as f64
        }
    }

    /// Grid-wide fallback decisions for one cause.
    pub fn fallbacks_for(&self, reason: DegradeReason) -> u64 {
        self.per_agent_causes
            .iter()
            .map(|slots| slots[reason.index()])
            .sum()
    }

    /// Fraction of decisions served by the fallback controller.
    pub fn fallback_rate(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.fallback_decisions as f64 / self.decisions as f64
        }
    }

    /// Per-agent decisions per wall-clock second of serving.
    pub fn decisions_per_sec(&self) -> f64 {
        let total_ns = self.latency.total_ns();
        if total_ns == 0 {
            0.0
        } else {
            self.decisions as f64 / (total_ns as f64 / 1e9)
        }
    }

    /// Latency at quantile `q` in microseconds: 0 when nothing was
    /// recorded, the *exact* extrema at `q ≤ 0` / `q ≥ 1`, and
    /// otherwise the upper edge of the histogram bucket containing the
    /// quantile (see [`Histogram::percentile_us`]).
    pub fn percentile_us(&self, q: f64) -> f64 {
        self.latency.percentile_us(q)
    }

    /// Median step latency in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.percentile_us(0.50)
    }

    /// 95th-percentile step latency in microseconds.
    pub fn p95_us(&self) -> f64 {
        self.percentile_us(0.95)
    }

    /// 99th-percentile step latency in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.percentile_us(0.99)
    }

    /// Mean step latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.latency.mean_us()
    }

    /// Fastest recorded step in microseconds (0 when empty).
    pub fn min_us(&self) -> f64 {
        self.latency.min_us()
    }

    /// Slowest recorded step in microseconds.
    pub fn max_us(&self) -> f64 {
        self.latency.max_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_telemetry_reads_zero() {
        let t = ServeTelemetry::new(4);
        assert_eq!(t.steps(), 0);
        assert_eq!(t.p50_us(), 0.0);
        assert_eq!(t.percentile_us(0.0), 0.0);
        assert_eq!(t.percentile_us(1.0), 0.0);
        assert_eq!(t.fallback_rate(), 0.0);
        assert_eq!(t.decisions_per_sec(), 0.0);
        assert_eq!(t.min_us(), 0.0);
    }

    #[test]
    fn percentiles_are_monotone_and_bracket_the_data() {
        let mut t = ServeTelemetry::new(2);
        for i in 1..=100u64 {
            t.record(Duration::from_micros(i * 10), &[None, None], false);
        }
        let (p50, p95, p99) = (t.p50_us(), t.p95_us(), t.p99_us());
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // Bucket upper edges overestimate by at most one ratio step.
        let ratio = Histogram::RATIO;
        assert!((500.0..=500.0 * ratio).contains(&p50), "{p50}");
        assert!((990.0..=990.0 * ratio).contains(&p99), "{p99}");
        assert_eq!(t.decisions(), 200);
        assert!(t.max_us() >= 1000.0);
        assert_eq!(t.min_us(), 10.0); // min/max are exact, not bucketed
    }

    #[test]
    fn extreme_quantiles_are_exact_even_for_a_single_sample() {
        let mut t = ServeTelemetry::new(1);
        t.record(Duration::from_micros(123), &[None], false);
        // One sample: every quantile is that sample; the extrema are
        // exact while interior quantiles pay bucket resolution.
        assert_eq!(t.percentile_us(0.0), 123.0);
        assert_eq!(t.percentile_us(1.0), 123.0);
        let p50 = t.p50_us();
        assert!((123.0..=123.0 * Histogram::RATIO).contains(&p50), "{p50}");

        let mut t = ServeTelemetry::new(1);
        t.record(Duration::from_micros(10), &[None], false);
        t.record(Duration::from_micros(990), &[None], false);
        assert_eq!(t.percentile_us(0.0), 10.0);
        assert_eq!(t.percentile_us(-3.0), 10.0); // clamped, still exact min
        assert_eq!(t.percentile_us(1.0), 990.0);
        assert_eq!(t.percentile_us(7.0), 990.0); // clamped, still exact max
    }

    #[test]
    fn merge_folds_counters_and_latency() {
        use DegradeReason::*;
        let mut a = ServeTelemetry::new(2);
        a.record(Duration::from_micros(10), &[Some(SensorHealth), None], true);
        let mut b = ServeTelemetry::new(2);
        b.record(Duration::from_micros(1000), &[None, None], false);
        b.record(
            Duration::from_micros(1000),
            &[None, Some(CommsHealth)],
            true,
        );
        a.merge(&b);
        assert_eq!(a.steps(), 3);
        assert_eq!(a.decisions(), 6);
        assert_eq!(a.fallback_decisions(), 2);
        assert_eq!(a.degraded_steps(), 2);
        assert_eq!(a.per_agent_fallbacks(), &[1, 1]);
        assert_eq!(a.min_us(), 10.0);
        assert_eq!(a.max_us(), 1000.0);
    }

    #[test]
    fn fallback_accounting_is_per_agent() {
        use DegradeReason::*;
        let mut t = ServeTelemetry::new(3);
        t.record(
            Duration::from_micros(5),
            &[Some(DeadlineOverrun), None, Some(SensorHealth)],
            true,
        );
        t.record(
            Duration::from_micros(5),
            &[None, None, Some(CommsHealth)],
            true,
        );
        t.record(Duration::from_micros(5), &[None, None, None], false);
        assert_eq!(t.fallback_decisions(), 3);
        assert_eq!(t.per_agent_fallbacks(), &[1, 0, 2]);
        assert_eq!(t.degraded_steps(), 2);
        assert!((t.fallback_rate() - 3.0 / 9.0).abs() < 1e-12);
        assert_eq!(t.per_agent_causes()[0], [1, 0, 0]);
        assert_eq!(t.per_agent_causes()[2], [0, 1, 1]);
        assert_eq!(t.fallbacks_for(DeadlineOverrun), 1);
        assert_eq!(t.fallbacks_for(SensorHealth), 1);
        assert_eq!(t.fallbacks_for(CommsHealth), 1);
    }

    #[test]
    fn admission_counters_accumulate_and_merge() {
        use ServiceLevel::*;
        let mut a = ServeTelemetry::new(1);
        a.record_admission(Full, 3);
        a.record_admission(Shed, 5);
        assert_eq!(a.steps_at(Full), 1);
        assert_eq!(a.steps_at(Shed), 1);
        assert_eq!(a.offered_requests(), 8);
        assert_eq!(a.shed_requests(), 5);
        assert!((a.shed_rate() - 5.0 / 8.0).abs() < 1e-12);
        let mut b = ServeTelemetry::new(1);
        b.record_admission(Degraded, 2);
        b.record_admission(Standby, 1);
        a.merge(&b);
        assert_eq!(a.level_steps(), &[1, 1, 1, 1]);
        assert_eq!(a.offered_requests(), 11);
        assert_eq!(a.shed_requests(), 5);
        // Hostile offered loads saturate both counters, when recorded
        // and when merged.
        let mut c = ServeTelemetry::new(1);
        c.record_admission(Shed, u64::MAX);
        c.record_admission(Shed, u64::MAX);
        assert_eq!(c.offered_requests(), u64::MAX);
        assert_eq!(c.shed_requests(), u64::MAX);
        a.merge(&c);
        assert_eq!(a.offered_requests(), u64::MAX);
        assert_eq!(a.shed_requests(), u64::MAX);
        assert_eq!(ServeTelemetry::new(2).shed_rate(), 0.0);
    }

    #[test]
    fn sub_microsecond_latencies_land_in_the_first_bucket() {
        let mut t = ServeTelemetry::new(1);
        t.record(Duration::from_nanos(10), &[None], false);
        assert_eq!(t.p50_us(), 1.0);
    }
}
