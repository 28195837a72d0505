//! Captures git-describe-style build provenance at compile time so run
//! manifests can pin the exact source tree a run was produced by. The
//! build never fails when git (or the repository) is absent — the
//! manifest then records `unknown`.

use std::path::Path;
use std::process::Command;

/// The checked-out commit, relative to this package's directory (the
/// build script's working directory).
const GIT_HEAD: &str = "../../.git/HEAD";

fn main() {
    let git = Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=TSC_OBS_GIT_DESCRIBE={git}");
    // Re-stamp when the checked-out commit moves. Cargo reruns a build
    // script on every build while a rerun-if-changed path is missing,
    // so outside a git checkout watch this script instead.
    if Path::new(GIT_HEAD).exists() {
        println!("cargo:rerun-if-changed={GIT_HEAD}");
    } else {
        println!("cargo:rerun-if-changed=build.rs");
    }
}
