#!/usr/bin/env python3
"""The repo benchmark's entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Builds the `perfbench` package (release profile, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs workloads, each
in its own single-threaded child process:

* `--trace 0` runs the named workload untraced and reports the
  end-to-end metrics.
* `--trace 1` runs the traced pass of every workload, the named one
  first, splitting `--seconds` between them, and reports every
  per-layer metric (`<workload>.<layer>.<metric>`).

Every line of the children's output is passed through, preceded by a
host and build stamp. The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
The exit code is 0 only when the build succeeded and every output
check held; a build failure prints no result line.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

WORKLOADS = ("train_grid6", "serve_clean", "serve_overload", "city_3k")
DEFAULT_SEEDS = {"train_grid6": 7, "serve_clean": 42, "serve_overload": 42, "city_3k": 42}
MANIFEST = os.path.join("perfbench", "Cargo.toml")
# Everything the build reads from the repository.
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench")
# A child may overrun its measurement window by one op plus set-up;
# the whole command must end within 180 s.
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            info = f.read()
    except OSError:
        return platform.processor() or "unknown", False
    model = next(
        (l.split(":", 1)[1].strip() for l in info.splitlines() if l.startswith("model name")),
        platform.processor() or "unknown",
    )
    flags = next((l for l in info.splitlines() if l.startswith("flags")), "")
    return model, "hypervisor" in flags.split()


def command_output(argv):
    try:
        out = subprocess.run(argv, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp(seed_for, fingerprints):
    model, hypervisor = cpu_model()
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": model,
        "hypervisor": hypervisor,
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        "profile": "release (lto=thin)",
        "git": (os.path.isdir(".git") and command_output(["git", "describe", "--always", "--dirty", "--tags"]))
        or "not a git checkout",
        "seeds": seed_for,
        "scenario_fingerprints": fingerprints,
    }


def source_digest():
    """SHA-256 over every input of the build: the sources and manifests
    under `SOURCES`, plus the toolchain and `RUSTFLAGS`."""
    h = hashlib.sha256()
    h.update((command_output(["rustc", "-vV"]) or "").encode())
    h.update(os.environ.get("RUSTFLAGS", "").encode())
    for top in SOURCES:
        if os.path.isfile(top):
            paths = [top]
        else:
            paths = []
            for root, dirs, files in os.walk(top):
                dirs[:] = sorted(d for d in dirs if d not in ("target", ".bench_build", "__pycache__"))
                paths += [os.path.join(root, f) for f in sorted(files)]
        for path in paths:
            h.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def build(target_dir):
    """Builds the runner unless this source tree was already built into
    `target_dir`. The check is ours, not cargo's: a build script in the
    workspace asks cargo to watch `.git/HEAD`, so outside a git
    repository cargo would rebuild the whole tree on every run."""
    binary = os.path.join(target_dir, "release", "perfbench")
    stamp_path = os.path.join(target_dir, "perfbench.srcdigest")
    digest = source_digest()
    try:
        with open(stamp_path) as f:
            if f.read() == digest and os.path.isfile(binary):
                return binary
    except OSError:
        pass
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    # Cargo may have refreshed perfbench/Cargo.lock; digest what was built.
    with open(stamp_path, "w") as f:
        f.write(source_digest())
    return binary


def run_child(binary, workload, seed, seconds, trace, workdir):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace), "--workdir", workdir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return done.returncode, done.stdout.splitlines()


def result_of(lines):
    """The child's result object (its last line), or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json says this mode prints."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def merge(results):
    """Folds per-workload traced results into one result object."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for r in results:
        merged["correct"] = merged["correct"] and r["correct"] is True
        merged["attempted"] += r["attempted"]
        merged["failed"] += r["failed"]
        merged["metrics"].update(r["metrics"])
    return merged


def main(argv):
    args = parse_args(argv)
    try:
        declared = declared_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        print(f"perfbench: cannot read the metric list from BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(target_dir)
    if binary is None:
        return 2
    if args.trace:
        order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
        seconds = args.seconds / len(order)
    else:
        order = [args.workload]
        seconds = args.seconds
    seeds = {w: DEFAULT_SEEDS[w] if args.seed is None else args.seed for w in order}
    workdir = os.path.join(target_dir, "perfbench-work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    results, fingerprints, code = [], {}, 0
    try:
        for w in order:
            rc, lines = run_child(binary, w, seeds[w], seconds, args.trace, workdir)
            for line in lines[:-1]:
                print(line)
                key, _, value = line.partition(" ")
                if key.startswith("scenario_fingerprint"):
                    fingerprints[w] = value
            result = result_of(lines)
            if result is None:
                # A child that died prints no result; neither does this.
                print(f"perfbench: {w} produced no result (exit {rc})", file=sys.stderr)
                return rc or 1
            if rc != 0:
                code = rc
            results.append(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    merged = merge(results)
    printed = {name: m["unit"] for name, m in merged["metrics"].items()}
    if printed != declared:
        print(f"perfbench: printed metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(declared) - set(printed))}, "
              f"undeclared {sorted(set(printed) - set(declared))}", file=sys.stderr)
        merged["correct"] = False
        code = code or 1
    print("stamp " + json.dumps(stamp(seeds, fingerprints), sort_keys=True))
    print(json.dumps(merged))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
