//! # tsc-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | Paper artifact | Driver | Binary |
//! |---|---|---|
//! | Table II (travel time, 5 patterns) | [`experiments::table2`] | `table2` |
//! | Table III (light traffic) | [`experiments::table3`] | `table3` |
//! | Table IV (communication overhead) | [`experiments::table4`] | `table4` |
//! | Fig. 7 (training curve) | [`experiments::training_curves`] | `fig7` |
//! | Fig. 8 (200-episode comparison + ablation) | [`experiments::training_curves`] | `fig8` |
//! | Fig. 10 (Monaco heterogeneous) | [`experiments::monaco_training`] | `fig10` |
//! | Fig. 11 (bandwidth 1 vs 2) | [`experiments::training_curves`] | `fig11` |
//!
//! Every binary accepts `--episodes`, `--horizon`, `--eval-horizon`,
//! `--hidden`, `--seed` and `--grid` to trade fidelity for wall-clock
//! time; results are printed and written under `results/`.
//!
//! End-to-end and per-layer timing lives in the repository benchmark,
//! `perfbench/` (run with `python3 perfbench/run.py`). The remaining
//! bins each hold something it does not: `loadgen` (the gold-class
//! p99 gate and per-SLA-class report), `cityscale` (the 36→3000
//! intersection sweep), `obs_overhead` (the flight-recorder gate),
//! `robustness` and `ablation_pairing` (paper artifacts), and the
//! `obs_report` and `forensics` tools. Bins that take `--json` write
//! `BENCH_*.json` at the repository root via [`report`]; their shared
//! argument grammar lives in [`cli`]. `loadgen` and `robustness` also
//! take `--scenario <name-or-path>` to run on a compiled
//! `tsc-scenario` world (see [`world`]), and every report embeds the
//! compiled scenario's fingerprint.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod eval;
pub mod experiments;
pub mod forensics;
pub mod models;
pub mod report;
pub mod world;

pub use cli::{exit_on_error, BenchArgs};
pub use eval::{evaluate, evaluate_seeds, EvalConfig, EvalResult};
pub use experiments::{ExperimentScale, TravelTimeTable};
pub use forensics::{replay_incident, FleetWorldSpec, ReplayReport, TenantWorldSpec};
pub use models::{train_model, ModelKind, TrainSetup, TrainedModel};
pub use report::{repo_root, write_prometheus, write_report, Json};
pub use world::resolve_scenario;
