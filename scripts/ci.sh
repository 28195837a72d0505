#!/usr/bin/env bash
# Pre-PR gate: formatting, lints with warnings denied, release build,
# the tier-1 test suite, release runs of the bit-identity pins and the
# exhaustive tanh and exp checks, smoke runs of the bench bins that hold gates
# of their own, and perfbench's tests. Serving, chaos and fleet
# behaviour is pinned by tier-1 tests, not by bin smokes. Run from
# anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q (tier 1)"
cargo test --workspace -q

echo "==> parity smoke (event core vs legacy oracle, all flow patterns)"
cargo test --release -q -p tsc-sim --test parity
cargo test --release -q -p tsc-sim --test golden

echo "==> allocation-count and golden-observation pins in release (perfbench measures release code; tier 1 runs debug)"
cargo test --release -q --test alloc_counts --test scenario_scale

echo "==> tsc-nn kernel tests (matmul, t_matmul, tanh, exp) and the golden training pin in release (perfbench measures release code; tier 1 runs debug)"
cargo test --release -q -p tsc-nn --lib
cargo test --release -q -p pairuplight --lib

echo "==> owned tanh and exp on all 2^32 inputs, every kernel build this CPU runs (baseline, AVX2, AVX-512F) against libm (glibc's FMA expf for exp), exact bits (ignored in tier 1)"
cargo test --release -q -p tsc-nn --lib -- --ignored

echo "==> loadgen --smoke (admission: no abort, overload replay digest, zero degraded steps under infra chaos, pinned p99)"
cargo run --release -q -p tsc-bench --bin loadgen -- --smoke

echo "==> obs_report --smoke (instrumented training + JSONL stream end-to-end)"
cargo run --release -q -p tsc-bench --bin obs_report -- --smoke

echo "==> forensics --smoke (flight recorder: dump incidents under chaos, replay bit-for-bit)"
cargo run --release -q -p tsc-bench --bin forensics -- --smoke

echo "==> obs_overhead --smoke (span overhead + flight-recorder gate)"
cargo run --release -q -p tsc-bench --bin obs_overhead -- --smoke

echo "==> cityscale --smoke (~200-intersection compiled city: conservation + replay identity)"
cargo run --release -q -p tsc-bench --bin cityscale -- --smoke

echo "==> perfbench tests (the benchmark builds against collect_rollout, Rollout, ServeConfig, TenantStep)"
cargo test --manifest-path perfbench/Cargo.toml
python3 -m unittest discover -s perfbench -p 'test_*.py'

echo "ci.sh: all gates passed"
