//! `--scenario` resolution: compiled worlds for the bench binaries.
//!
//! `loadgen` and `robustness` accept `--scenario <name-or-path>` through
//! the shared [`BenchArgs`] grammar; this module turns that value into
//! a [`CompiledScenario`]. The value is either a `tsc-scenario` preset
//! name (`monaco`, `grid`, `city-<n>`, `corridor-<n>`, `ring-<n>`) or
//! a filesystem path to a spec in the `tsc-scenario spec v1` text
//! format — presets are tried first, so a file literally named
//! `monaco` needs a `./` prefix.

use tsc_scenario::{compile, preset, CompiledScenario, ScenarioSpec};
use tsc_sim::SimError;

use crate::cli::BenchArgs;

/// Resolves the `--scenario` argument, if present, into a compiled
/// world. Returns `Ok(None)` when the flag was not passed — the
/// binary should fall back to its built-in world.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] when the value is neither a
/// preset name nor a readable spec file, when the spec fails to
/// parse, or when compilation fails.
pub fn resolve_scenario(args: &BenchArgs, seed: u64) -> Result<Option<CompiledScenario>, SimError> {
    let Some(value) = args.scenario.as_deref() else {
        return Ok(None);
    };
    let spec = spec_for(value, seed)?;
    compile(&spec).map(Some)
}

fn spec_for(value: &str, seed: u64) -> Result<ScenarioSpec, SimError> {
    if let Some(spec) = preset(value, seed) {
        return Ok(spec);
    }
    let text = std::fs::read_to_string(value).map_err(|e| {
        SimError::InvalidConfig(format!(
            "--scenario '{value}' is neither a preset (monaco, grid, city-<n>, \
             corridor-<n>, ring-<n>) nor a readable spec file: {e}"
        ))
    })?;
    ScenarioSpec::from_text(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> BenchArgs {
        BenchArgs::from_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn absent_flag_resolves_to_none() {
        assert!(resolve_scenario(&args(&["--json"]), 1).unwrap().is_none());
    }

    #[test]
    fn preset_name_resolves_and_seed_flows_through() {
        let a = resolve_scenario(&args(&["--scenario", "corridor-8"]), 5)
            .unwrap()
            .unwrap();
        let b = resolve_scenario(&args(&["--scenario", "corridor-8"]), 5)
            .unwrap()
            .unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.spec.seed, 5);
        assert_eq!(a.num_agents(), 8);
    }

    #[test]
    fn spec_file_resolves_via_text_format() {
        let spec = tsc_scenario::ring_spec(12, 9);
        let path = std::env::temp_dir().join("tsc_bench_world_test.spec");
        std::fs::write(&path, spec.to_text()).unwrap();
        let compiled = resolve_scenario(
            &args(&["--scenario", path.to_str().unwrap()]),
            0, // a file carries its own seed; the default is unused
        )
        .unwrap()
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(compiled.fingerprint, compile(&spec).unwrap().fingerprint);
    }

    #[test]
    fn junk_value_is_a_clear_error() {
        let err = resolve_scenario(&args(&["--scenario", "no-such-thing-42x"]), 1);
        assert!(err.is_err());
    }
}
