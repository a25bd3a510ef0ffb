#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload at a tiny size, untraced
and traced, and checks the report format.

Run from the repository root:

    python3 perfbench/selftest.py

For each run it checks that:
- the last stdout line is one JSON object with exactly the keys correct,
  attempted, failed and metrics;
- `metrics` names exactly the end-to-end metrics (--trace 0) or per-layer
  metrics (--trace 1) that BENCHMARK.json lists, each with its unit;
- every operation's output matched its oracle;
- the conditions line and the workload-named figures are printed, with
  units.
Exits non-zero on the first problem.
"""
import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]

# Workload-named end-to-end figures printed above the JSON line.
NAMED = {
    "fleet": [("fleet_packets_per_s", "packets/s")],
    "gateway": [("gateway_packets_per_s", "packets/s"),
                ("gateway_home_ms.p50", "ms"), ("gateway_home_ms.p99", "ms")],
    "campaign": [("campaign_cells_per_s", "cells/s")],
    "arena": [("arena_cells_per_s", "cells/s")],
    "arena-knn": [("arena_knn_cells_per_s", "cells/s")],
}
COMMON = [("setup_s", "s"), ("peak_rss_mb", "MiB")]
CONDITIONS = {"cpu_model", "nproc", "pool_width", "build_type",
              "simd_backend", "seed", "git_commit"}


def fail(what: str) -> None:
    sys.exit(f"selftest: {what}")


def check_run(workload: str, trace: int, expected: dict) -> None:
    cmd = RUN + ["--workload", workload, "--seconds", "0.5",
                 "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        fail(f"{where} exited {done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if result["attempted"] < 1 or not isinstance(result["failed"], int):
        fail(f"{where}: attempted {result['attempted']}, "
             f"failed {result['failed']}")
    if result["correct"] is not True:
        fail(f"{where}: an output differed from its oracle")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        fail(f"{where}: missing metrics {missing}, unexpected {extra}")
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            fail(f"{where}: {name} has unit {metrics[name]['unit']}, "
                 f"expected {unit}")

    conditions = next((json.loads(l)["conditions"] for l in lines
                       if l.startswith('{"conditions"')), None)
    if conditions is None or not CONDITIONS <= set(conditions):
        fail(f"{where}: conditions line missing or incomplete")
    if trace == 0:
        text = "\n".join(lines[:-1])
        for name, unit in COMMON + NAMED[workload]:
            pattern = rf"^{re.escape(name)} = \S+ {re.escape(unit)}\b"
            if not re.search(pattern, text, re.MULTILINE):
                fail(f"{where}: no '{name} = <value> {unit}' line")
    print(f"selftest: {where}: ok ({result['attempted']} attempted, "
          f"{result['failed']} failed)")


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in NAMED:
        check_run(workload, 0, end_to_end)
        check_run(workload, 1, per_layer)
    print("selftest: all runs ok")


if __name__ == "__main__":
    main()
