//! The repo benchmark's workload runner: one workload per process.
//!
//! `perfbench <workload> --seed <n> [--seconds <s>] [--trace <0|1>]
//! [--workdir <dir>]` sets the workload up, runs its ops for `s`
//! seconds, checks every output, and prints a metric table followed by
//! one JSON line (`correct`, `attempted`, `failed`, `metrics`). With
//! `--trace 0` the metrics are the end-to-end set; with `--trace 1`
//! the run spends half its time untraced (the reference for tracing
//! overhead) and half traced, and reports per-layer metrics named
//! `<workload>.<layer>.<metric>`.
//! Output checks that fail print the JSON with `"correct": false` and
//! exit with code 1. `perfbench/run.py` builds this binary and is the
//! benchmark's entry point.

mod city;
mod serve;
mod stats;
mod train;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{fast_median, valid_name, valid_unit, Metric, OpTimes};

/// The benchmark's workloads, in the order the traced ladder runs them.
pub const WORKLOADS: [&str; 4] = ["train_grid6", "serve_clean", "serve_overload", "city_3k"];

/// End-to-end metric names and units, in report order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("policy_ratio", "ratio"),
];

type BoxError = Box<dyn std::error::Error>;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workdir: PathBuf,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let workload = argv
            .first()
            .filter(|w| WORKLOADS.contains(&w.as_str()))
            .ok_or_else(|| format!("first argument must be one of {WORKLOADS:?}"))?
            .clone();
        let (mut seed, mut seconds, mut trace) = (None, 10.0_f64, false);
        let mut workdir = PathBuf::from(".");
        let mut it = argv[1..].iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
                "--seconds" => {
                    seconds = value.parse().map_err(|e| bad(&e))?;
                    if !(seconds.is_finite() && seconds > 0.0) {
                        return Err(bad(&"must be a positive number"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    }
                }
                "--workdir" => workdir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            workdir,
        })
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops timed (warm-up excluded).
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Output checks that did not hold; any entry fails the run.
    pub failures: Vec<String>,
    /// `key value` lines describing the run (digests, fingerprints).
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// Records a failed output check. Only the first 20 are kept: a check
    /// that fails on every op would otherwise flood the output.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.failures.len() < 20 {
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric::new(name, value, unit, samples));
    }
}

/// The end-to-end quantities a workload measured; [`Report`] metrics
/// are derived from them the same way for every workload.
pub struct EndToEnd<'a> {
    /// Wall time of each set-up repetition, seconds, spread over the run.
    pub setup_s: &'a [f64],
    /// The timed ops and the work they did.
    pub ops: &'a OpTimes,
    /// Share of units of service answered without failure.
    pub ok_ratio: f64,
    /// Share of decisions made by the workload's own controller.
    pub policy_ratio: f64,
    /// Decisions or tenant-steps the two ratios count.
    pub ratio_samples: u64,
}

impl EndToEnd<'_> {
    pub fn metrics(&self) -> Vec<Metric> {
        let s = self.ops.summary();
        vec![
            Metric::new(
                "setup_s",
                fast_median(self.setup_s),
                "s",
                self.setup_s.len() as u64,
            ),
            Metric::new("op_p50_us", s.p50_us, "us", s.sampled),
            Metric::new("op_p99_us", s.p99_us, "us", s.sampled),
            Metric::new("throughput_per_s", s.throughput, "1/s", s.ops),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1),
            Metric::new("ok_ratio", self.ok_ratio, "ratio", self.ratio_samples),
            Metric::new(
                "policy_ratio",
                self.policy_ratio,
                "ratio",
                self.ratio_samples,
            ),
        ]
    }
}

/// Runs `op` until `seconds` of wall time have passed since the call,
/// at least once. The last op is never cut short.
pub fn run_for(seconds: f64, mut op: impl FnMut() -> Result<(), BoxError>) -> Result<(), BoxError> {
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        op()?;
        if Instant::now() >= until {
            return Ok(());
        }
    }
}

/// Times one set-up repetition, appending its wall time in seconds.
pub fn timed<T>(
    times: &mut Vec<f64>,
    setup: impl FnOnce() -> Result<T, BoxError>,
) -> Result<T, BoxError> {
    let t0 = Instant::now();
    let out = setup()?;
    times.push(t0.elapsed().as_secs_f64());
    Ok(out)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// FNV-1a over `words`, the digest the repository's pins use.
pub fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn proc_status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn render_json(report: &Report, correct: bool) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted, report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<Report, BoxError> {
    let mut report = match args.workload.as_str() {
        "train_grid6" => train::run(args)?,
        "serve_clean" => serve::run(args, serve::Regime::Clean)?,
        "serve_overload" => serve::run(args, serve::Regime::Overload)?,
        "city_3k" => city::run(args)?,
        other => return Err(format!("unknown workload {other}").into()),
    };
    if args.trace {
        for m in &mut report.metrics {
            m.name = format!("{}.{}", args.workload, m.name);
        }
    }
    // The workload owns one thread: the measurement is single-threaded.
    let threads = proc_status_field("Threads");
    report.check(threads.is_none_or(|t| t == 1), || {
        format!("expected a single-threaded process, found {threads:?} threads")
    });
    let malformed: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| !(m.value.is_finite() && valid_name(&m.name) && valid_unit(m.unit)))
        .map(|m| format!("malformed metric {} = {} {}", m.name, m.value, m.unit))
        .collect();
    report.failures.extend(malformed);
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench <workload> --seed N [--seconds S] [--trace 0|1] [--workdir DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (k, v) in &report.notes {
        println!("{k} {v}");
    }
    for m in &report.metrics {
        println!(
            "metric {:<44} {:>16.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let correct = report.failures.is_empty() && report.failed == 0;
    for f in &report.failures {
        println!("CHECK FAILED: {f}");
    }
    println!("{}", render_json(&report, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_names_are_valid_and_match_the_declared_list() {
        let mut ops = OpTimes::new(1, 1);
        for us in [10.0, 20.0, 30.0, 40.0] {
            ops.record(us, 1.0);
        }
        let e2e = EndToEnd {
            setup_s: &[0.5, 0.4, 0.6],
            ops: &ops,
            ok_ratio: 1.0,
            policy_ratio: 0.5,
            ratio_samples: 4,
        };
        let metrics = e2e.metrics();
        let names: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
        assert_eq!(names, END_TO_END.to_vec());
        for m in &metrics {
            assert!(valid_name(&m.name) && valid_unit(m.unit), "{m:?}");
        }
        // The fastest twentieth: one set-up, one single-op window.
        assert_eq!(metrics[0].value, 0.4);
        assert_eq!(metrics[1].value, 10.0);
        assert_eq!(metrics[2].value, 10.0);
        assert!((metrics[3].value - 1e5).abs() < 1e-6);
    }

    #[test]
    fn args_parse_defaults_and_reject_junk() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = Args::parse(&argv("city_3k --seed 42 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (42, 3.0, true));
        let a = Args::parse(&argv("train_grid6 --seed 11")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (11, 10.0, false));
        for bad in [
            "",
            "nope",
            "city_3k --seconds 3",
            "city_3k --trace 2",
            "city_3k --seconds 0",
            "city_3k --seed",
            "city_3k --bogus 1",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("op_p50_us", 12.5, "us", 3);
        r.metric("setup_s", 0.25, "s", 5);
        assert_eq!(
            render_json(&r, true),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"op_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
