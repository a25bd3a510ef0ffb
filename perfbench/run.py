#!/usr/bin/env python3
"""Builds the pmiot benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fleet --seed 42 --seconds 15 --trace 0

The benchmark is compiled into .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench when that is set) with CMake, from ../src and
this directory only. Build output goes to stderr; stdout carries the
benchmark's report, whose last line is one JSON object with the keys
correct, attempted, failed and metrics.

Both modes run at PMIOT_THREADS=1. --trace 0 reports the end-to-end
metrics. --trace 1 sets PMIOT_METRICS=1 and reports the per-layer metrics;
the span records are written next to the build as
spans_<workload>_<seed>.jsonl.

Exits non-zero, without a result line, when the sources are missing, the
build fails, or the benchmark fails to set up.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet", "gateway", "campaign", "arena", "arena-knn")
# The seeds the repository's own benches ship with.
DEFAULT_SEEDS = {"fleet": 42, "gateway": 42, "campaign": 2017, "arena": 2018,
                 "arena-knn": 2018}
RUN_TIMEOUT_S = 170


def build_dir() -> pathlib.Path:
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = pathlib.Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build(out: pathlib.Path) -> pathlib.Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no pmiot sources at src/ next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "pmiot_perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return out / "pmiot_perfbench"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the self-test only")
    args = parser.parse_args()
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be non-negative")

    out = build_dir()
    binary = build(out)
    env = dict(os.environ, PMIOT_THREADS="1")
    if args.trace:
        env["PMIOT_METRICS"] = "1"
    else:
        env.pop("PMIOT_METRICS", None)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch-dir", str(out), "--commit", git_commit()]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
