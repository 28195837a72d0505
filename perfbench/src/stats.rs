//! Order statistics and the metric record every workload reports.

/// One reported number: name, value, unit, and how many samples it
/// summarises.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// Nearest-rank quantile: the smallest sample with at least `q` of the
/// samples at or below it (rank `ceil(q·n)`, clamped to `1..=n`).
/// `None` on an empty slice.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Median of `samples` by nearest rank (0 on an empty slice).
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(samples, 0.5).unwrap_or(0.0)
}

/// How many of `n` repeats a summary keeps: the fastest twentieth, at
/// least one.
pub fn fastest_share(n: usize) -> usize {
    n.div_ceil(20)
}

/// Median of the fastest twentieth of `values`: how a quantity repeated
/// across a run (set-up) is reported, for the reason given on
/// [`OpTimes`].
pub fn fast_median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.truncate(fastest_share(sorted.len()));
    median(&sorted)
}

#[derive(Debug, Clone, Copy, Default)]
struct Window {
    us: f64,
    work: f64,
    ops: u64,
    /// Nearest-rank median op time, set when the window completes.
    median_us: f64,
}

/// What a run reports about its ops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSummary {
    pub p50_us: f64,
    pub p99_us: f64,
    /// Work per second of op wall time.
    pub throughput: f64,
    /// Values the quantiles were taken over: ops, or positions when
    /// the ops replay a pass.
    pub sampled: u64,
    /// Ops the throughput covers.
    pub ops: u64,
}

/// Op wall times in microseconds, grouped into windows of `window`
/// consecutive ops.
///
/// The shared host alternates between a fast state and one 1.3–2×
/// slower, in spells from milliseconds to whole runs, so a run's plain
/// median lands in either cluster depending on how much of the run was
/// slow. A run is therefore summarised over the fastest twentieth of
/// its complete windows, ranked by their median op time (a median, so
/// one stalled op does not drop its window and stalls still reach the
/// p99). Windows that repeat the same work (op `k` of a replayed pass)
/// share a position, `window index mod positions`. Then the fastest
/// twentieth is taken per position, each position is estimated by the
/// median op of its kept windows, and the quantiles are taken over the
/// positions: every op of the pass counts once, so the selection cannot
/// favour light ops over heavy ones. That reads the program rather than
/// its neighbours and still moves with any change that slows every
/// window.
///
/// Memory is bounded: up to [`CAP`] ops every op is kept (as `f32`);
/// past that a systematic subsample, every `stride`-th op, with the
/// stride doubling each time the buffer fills. Window sums stay exact.
/// A subsample can alias with work that recurs every few fleet steps
/// and bias the p99, so `CAP` holds every op of a minute-long serve run.
///
/// [`CAP`]: OpTimes::CAP
#[derive(Debug, Clone)]
pub struct OpTimes {
    kept: Vec<f32>,
    stride: u64,
    seen: u64,
    window: u64,
    positions: usize,
    windows: Vec<Window>,
    /// The current window's ops, for its median.
    current: Vec<f64>,
}

impl OpTimes {
    pub const CAP: usize = 1 << 20;

    pub fn new(window: u64, positions: usize) -> Self {
        let mut kept = Vec::with_capacity(Self::CAP);
        // Touch the whole buffer now, so `peak_rss_mb` does not depend
        // on how many ops a run happens to take. The fill is not zero:
        // a zero fill of a fresh allocation may become `calloc`, whose
        // pages stay untouched until an op lands on them.
        kept.resize(Self::CAP, -1.0);
        kept.clear();
        OpTimes {
            kept,
            stride: 1,
            seen: 0,
            window: window.max(1),
            positions: positions.max(1),
            windows: Vec::new(),
            current: Vec::with_capacity(window.max(1) as usize),
        }
    }

    /// Records one op of `us` microseconds that did `work` units.
    pub fn record(&mut self, us: f64, work: f64) {
        let w = (self.seen / self.window) as usize;
        if w == self.windows.len() {
            self.windows.push(Window::default());
        }
        let win = &mut self.windows[w];
        win.us += us;
        win.work += work;
        win.ops += 1;
        self.current.push(us);
        if win.ops == self.window {
            win.median_us = median(&self.current);
            self.current.clear();
        }
        if self.seen.is_multiple_of(self.stride) && self.kept.len() == Self::CAP {
            let mut i = 0;
            self.kept.retain(|_| {
                i += 1;
                i % 2 == 1
            });
            self.stride *= 2;
        }
        if self.seen.is_multiple_of(self.stride) {
            self.kept.push(us as f32);
        }
        self.seen += 1;
    }

    /// Ops recorded.
    pub fn ops(&self) -> u64 {
        self.seen
    }

    /// Median op time over every kept op (no window selection).
    pub fn median_all(&self) -> f64 {
        let all: Vec<f64> = self.kept.iter().map(|&us| f64::from(us)).collect();
        median(&all)
    }

    /// Quantiles and throughput over the fastest twentieth of complete
    /// windows at each position (all windows when none is complete).
    pub fn summary(&self) -> OpSummary {
        let mut by_position = vec![Vec::new(); self.positions];
        for (w, win) in self.windows.iter().enumerate() {
            if win.ops == self.window {
                by_position[w % self.positions].push(w);
            }
        }
        if by_position.iter().all(Vec::is_empty) {
            by_position = vec![(0..self.windows.len()).collect()];
        }
        let key = |w: usize| self.windows[w].median_us;
        for group in &mut by_position {
            group.sort_by(|&a, &b| key(a).total_cmp(&key(b)));
            group.truncate(fastest_share(group.len()));
        }
        let chosen: Vec<usize> = by_position.iter().flatten().copied().collect();
        let (us, work, ops) = chosen.iter().fold((0.0, 0.0, 0), |(us, work, ops), &w| {
            let win = self.windows[w];
            (us + win.us, work + win.work, ops + win.ops)
        });
        let sample: Vec<f64> = if by_position.len() > 1 {
            // A replayed pass: one estimate per position, the median of
            // its kept windows' medians.
            by_position
                .iter()
                .filter(|g| !g.is_empty())
                .map(|g| median(&g.iter().map(|&w| key(w)).collect::<Vec<_>>()))
                .collect()
        } else {
            let mut selected = vec![false; self.windows.len()];
            for &w in &chosen {
                selected[w] = true;
            }
            self.kept
                .iter()
                .enumerate()
                .filter(|&(i, _)| selected[(i as u64 * self.stride / self.window) as usize])
                .map(|(_, &us)| f64::from(us))
                .collect()
        };
        OpSummary {
            p50_us: median(&sample),
            p99_us: nearest_rank(&sample, 0.99).unwrap_or(0.0),
            throughput: work / (us * 1e-6),
            sampled: sample.len() as u64,
            ops,
        }
    }
}

/// Whether `name` fits the benchmark's metric-name grammar: starts
/// with a letter or digit, at most 64 characters of letters, digits,
/// `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` fits the unit grammar: 1–16 characters of letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_p50_and_p99_on_known_vectors() {
        let one_to_hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&one_to_hundred, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&one_to_hundred, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&one_to_hundred, 1.0), Some(100.0));

        // Order of arrival does not matter.
        let mut shuffled = one_to_hundred.clone();
        shuffled.reverse();
        shuffled.swap(3, 70);
        assert_eq!(nearest_rank(&shuffled, 0.99), Some(99.0));

        // 1000 samples: p99 is the 990th smallest, ten samples beyond.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&thousand, 0.99), Some(990.0));
        assert_eq!(median(&thousand), 500.0);

        // Odd length: the true middle; tiny vectors clamp to the ends.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[7.0, 9.0], 0.01), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fast_median_keeps_the_fastest_twentieth() {
        assert_eq!(fastest_share(1), 1);
        assert_eq!(fastest_share(20), 1);
        assert_eq!(fastest_share(21), 2);
        assert_eq!(fast_median(&[5.0]), 5.0);
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(fast_median(&v), 1.0);
        // 60 repeats keep three: 1, 2, 3.
        let v: Vec<f64> = (1..=60).rev().map(f64::from).collect();
        assert_eq!(fast_median(&v), 2.0);
        assert_eq!(fast_median(&[]), 0.0);
    }

    #[test]
    fn op_summary_reads_the_fastest_twentieth_of_windows() {
        // Forty windows of 100 ops. Windows 4 and 13 ran at 10 us, the
        // rest at 15 us (a slow state); window 4 also stalled once at
        // 500 us, which moves its mean but not its median.
        let mut t = OpTimes::new(100, 1);
        for w in 0..40 {
            for i in 0..100 {
                let fast = w == 4 || w == 13;
                let us = if w == 4 && i == 7 {
                    500.0
                } else if fast {
                    10.0
                } else {
                    15.0
                };
                t.record(us, 2.0);
            }
        }
        // A partial window never counts while complete ones exist.
        t.record(1.0, 2.0);
        let s = t.summary();
        assert_eq!((s.sampled, s.ops), (200, 200));
        assert_eq!(s.p50_us, 10.0);
        assert_eq!(s.p99_us, 10.0);
        assert_eq!(s.throughput, 400.0 / (2490.0 * 1e-6));
        assert_eq!(t.median_all(), 15.0);
    }

    #[test]
    fn op_summary_selects_per_position() {
        // Three positions (a light, a medium and a heavy op) replayed
        // forty times; every replay but two ran in the slow state, and
        // the heavy op of pass 11 also stalled.
        let mut t = OpTimes::new(1, 3);
        for pass in 0..40 {
            for base in [1.0, 2.0, 4.0] {
                let us = match pass {
                    11 if base == 4.0 => 9.0,
                    3 | 11 => base,
                    _ => base * 1.5,
                };
                t.record(us, 1.0);
            }
        }
        // Two fast replays of every position are kept; each position is
        // estimated by their (nearest-rank) median, and the quantiles
        // are taken over the three estimates.
        let s = t.summary();
        assert_eq!((s.sampled, s.ops), (3, 6));
        assert_eq!((s.p50_us, s.p99_us), (2.0, 4.0));
        let kept_us = 1.0 + 1.0 + 2.0 + 2.0 + 4.0 + 6.0;
        assert_eq!(s.throughput, 6.0 / (kept_us * 1e-6));
    }

    #[test]
    fn op_times_keep_a_uniform_sample_in_bounded_memory() {
        let mut t = OpTimes::new(1, 1);
        for i in 0..1000 {
            t.record(f64::from(i), 1.0);
        }
        assert_eq!(t.ops(), 1000);
        assert_eq!(t.median_all(), 499.0);

        let n = 5 * OpTimes::CAP as u64 + 3;
        let mut t = OpTimes::new(n, 1);
        for i in 0..n {
            t.record(i as f64, 1.0);
        }
        assert_eq!(t.ops(), n);
        let kept = &t.kept;
        assert!(kept.len() <= OpTimes::CAP && kept.len() > OpTimes::CAP / 2);
        // Every eighth op, from the first: a systematic sample.
        assert!(kept
            .iter()
            .enumerate()
            .all(|(k, &v)| f64::from(v) == (8 * k) as f64));
        // One window, incomplete: the summary falls back to it.
        let s = t.summary();
        assert_eq!(s.ops, n);
        assert!((s.p50_us - n as f64 / 2.0).abs() <= 8.0, "{}", s.p50_us);
        assert!((s.p99_us - 0.99 * n as f64).abs() <= 8.0, "{}", s.p99_us);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "op_p50_us",
            "train_grid6.core.rollout_us",
            "serve_overload.serve.admission_flight_us",
            "0-day",
            &"a".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "µs",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["us", "s", "1/s", "MB", "ratio", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "per op", &"x".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
