//! Machine-readable benchmark reports.
//!
//! Benchmark binaries print human-readable tables; with `--json` they
//! *also* write a `BENCH_*.json` file at the repository root so CI and
//! tooling can track numbers across commits. The JSON value type is
//! the workspace-shared [`tsc_obs::Json`] (re-exported here): every
//! bench writer and every report reader — `obs_report`, CI — uses the
//! same encoder/parser, so shapes can never drift between the tool
//! that writes a report and the tool that reads it.

use std::io;
use std::path::PathBuf;

pub use tsc_obs::Json;

/// The repository root (two levels above this crate's manifest).
pub fn repo_root() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().unwrap_or(root)
}

/// Writes `report` as `<repo root>/<name>` and returns the path.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_report(name: &str, report: &Json) -> io::Result<PathBuf> {
    let path = repo_root().join(name);
    std::fs::write(&path, report.pretty())?;
    Ok(path)
}

/// Writes a Prometheus text-exposition page as `<repo root>/<name>`
/// (conventionally `BENCH_*.prom`, written alongside the same bench's
/// `BENCH_*.json` from [`tsc_serve::FleetRuntime::exposition`]) and
/// returns the path.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_prometheus(name: &str, page: &str) -> io::Result<PathBuf> {
    let path = repo_root().join(name);
    std::fs::write(&path, page)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_root_contains_the_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").is_file());
    }

    #[test]
    fn reports_round_trip_through_the_shared_json() {
        let j = Json::obj([
            ("name", Json::str("cell")),
            ("rows", Json::Arr(vec![Json::num(1u32), Json::num(2.5)])),
        ]);
        assert_eq!(Json::parse(&j.pretty()).unwrap(), j);
    }
}
