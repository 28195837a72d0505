//! Property: `ServeTelemetry::merge` is exactly concatenation. Fleet
//! aggregation leans on this — a tenant's lifetime telemetry is the
//! merge of every runtime retired by recovery reloads, and it must be
//! indistinguishable from one runtime having recorded the whole
//! stream.

use std::time::Duration;

use proptest::prelude::*;
use tsc_serve::{DegradeReason, ServeTelemetry, ServiceLevel};

const AGENTS: usize = 3;

/// One recorded step: a latency, per-agent fallback causes, and the
/// admission outcome (service level + offered requests) when the step
/// went through admission control.
#[derive(Debug, Clone)]
struct Step {
    latency_us: u64,
    causes: Vec<Option<DegradeReason>>,
    admission: Option<(ServiceLevel, u64)>,
}

fn admission_strategy() -> impl Strategy<Value = Option<(ServiceLevel, u64)>> {
    prop_oneof![
        1 => Just(None),
        4 => (
            prop_oneof![
                Just(ServiceLevel::Full),
                Just(ServiceLevel::Degraded),
                Just(ServiceLevel::Standby),
                Just(ServiceLevel::Shed),
            ],
            1u64..200,
        )
            .prop_map(Some),
    ]
}

fn cause_strategy() -> impl Strategy<Value = Option<DegradeReason>> {
    prop_oneof![
        3 => Just(None),
        1 => Just(Some(DegradeReason::DeadlineOverrun)),
        1 => Just(Some(DegradeReason::SensorHealth)),
        1 => Just(Some(DegradeReason::CommsHealth)),
    ]
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        1u64..2_000_000,
        proptest::collection::vec(cause_strategy(), AGENTS),
        admission_strategy(),
    )
        .prop_map(|(latency_us, causes, admission)| Step {
            latency_us,
            causes,
            admission,
        })
}

fn record_all(t: &mut ServeTelemetry, steps: &[Step]) {
    for s in steps {
        let degraded = s.causes.iter().any(|c| c.is_some());
        t.record(Duration::from_micros(s.latency_us), &s.causes, degraded);
        if let Some((level, offered)) = s.admission {
            t.record_admission(level, offered);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Recording a stream in two halves and merging equals one
    /// telemetry recording the concatenation — every counter, every
    /// per-agent breakdown, and every percentile of the merged
    /// histogram.
    #[test]
    fn merge_of_halves_equals_concatenated_recording(
        first in proptest::collection::vec(step_strategy(), 0..40),
        second in proptest::collection::vec(step_strategy(), 0..40),
    ) {
        let mut left = ServeTelemetry::new(AGENTS);
        record_all(&mut left, &first);
        let mut right = ServeTelemetry::new(AGENTS);
        record_all(&mut right, &second);
        left.merge(&right);

        let mut whole = ServeTelemetry::new(AGENTS);
        record_all(&mut whole, &first);
        record_all(&mut whole, &second);

        prop_assert_eq!(left.steps(), whole.steps());
        prop_assert_eq!(left.decisions(), whole.decisions());
        prop_assert_eq!(left.fallback_decisions(), whole.fallback_decisions());
        prop_assert_eq!(left.degraded_steps(), whole.degraded_steps());
        prop_assert_eq!(left.per_agent_fallbacks(), whole.per_agent_fallbacks());
        prop_assert_eq!(left.per_agent_causes(), whole.per_agent_causes());
        for reason in DegradeReason::ALL {
            prop_assert_eq!(left.fallbacks_for(reason), whole.fallbacks_for(reason));
        }

        // Admission counters are plain sums, so merge == concatenation
        // must hold exactly — including the derived shed rate.
        prop_assert_eq!(left.level_steps(), whole.level_steps());
        for level in ServiceLevel::ALL {
            prop_assert_eq!(left.steps_at(level), whole.steps_at(level));
        }
        prop_assert_eq!(left.offered_requests(), whole.offered_requests());
        prop_assert_eq!(left.shed_requests(), whole.shed_requests());
        prop_assert_eq!(left.shed_rate().to_bits(), whole.shed_rate().to_bits());

        // Histogram agreement: identical bucket contents, so identical
        // percentiles at every probed quantile and exact extrema.
        prop_assert_eq!(left.latency_histogram().buckets(), whole.latency_histogram().buckets());
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            prop_assert_eq!(left.percentile_us(q), whole.percentile_us(q));
        }
        prop_assert_eq!(left.min_us(), whole.min_us());
        prop_assert_eq!(left.max_us(), whole.max_us());
        prop_assert_eq!(left.mean_us(), whole.mean_us());
    }

    /// Merge order is irrelevant for every exported statistic.
    #[test]
    fn merge_is_commutative_on_exports(
        first in proptest::collection::vec(step_strategy(), 1..30),
        second in proptest::collection::vec(step_strategy(), 1..30),
    ) {
        let mut a = ServeTelemetry::new(AGENTS);
        record_all(&mut a, &first);
        let mut b = ServeTelemetry::new(AGENTS);
        record_all(&mut b, &second);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);

        prop_assert_eq!(ab.steps(), ba.steps());
        prop_assert_eq!(ab.per_agent_fallbacks(), ba.per_agent_fallbacks());
        prop_assert_eq!(ab.latency_histogram().buckets(), ba.latency_histogram().buckets());
        prop_assert_eq!(ab.p99_us(), ba.p99_us());
        prop_assert_eq!(ab.level_steps(), ba.level_steps());
        prop_assert_eq!(ab.offered_requests(), ba.offered_requests());
        prop_assert_eq!(ab.shed_requests(), ba.shed_requests());
    }
}

/// Merging mismatched grid sizes must fail loudly, not corrupt.
#[test]
#[should_panic(expected = "different grid sizes")]
fn merge_rejects_mismatched_agent_counts() {
    let mut a = ServeTelemetry::new(2);
    let b = ServeTelemetry::new(3);
    a.merge(&b);
}
