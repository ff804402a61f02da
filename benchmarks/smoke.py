#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 benchmarks/smoke.py

For every workload and both trace modes: the run exits 0, its last line
holds exactly the metrics BENCHMARK.json names for that mode, each with its
unit, attempted >= 1 and correct is true. The three runs of a workload, all
with one seed, must report the same attempted and failed counts, and the
two untraced ones must record one output digest. A directory holding only
BENCHMARK.json and the benchmark must make the benchmark exit non-zero
without a result line.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "0.5"


def run(bench: dict, workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*bench["command"], "--workload", workload, "--seed", "7", "--seconds", SECONDS,
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def fail(message: str) -> int:
    print(f"FAIL {message}")
    return 1


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        digests, counts = [], set()
        for trace in (0, 1, 0):
            proc = run(bench, workload, trace)
            if proc.returncode != 0:
                return fail(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                return fail(f"{workload} trace {trace}: result keys {sorted(line)}")
            units = {name: m["unit"] for name, m in line["metrics"].items()}
            if units != expected[trace]:
                return fail(f"{workload} trace {trace}: metrics differ from BENCHMARK.json")
            if not all(isinstance(m["value"], (int, float)) for m in line["metrics"].values()):
                return fail(f"{workload} trace {trace}: a metric value is not a number")
            if line["attempted"] < 1 or not line["correct"]:
                return fail(f"{workload} trace {trace}: attempted {line['attempted']}, correct {line['correct']}")
            result = ROOT / ".bench_work" / "results" / f"{workload}-seed7-trace{trace}.json"
            counts.add((line["attempted"], line["failed"]))
            if trace == 0:
                digests.append(json.loads(result.read_text())["digest"])
            print(f"ok   {workload} trace {trace}: {len(units)} metrics, attempted {line['attempted']}, "
                  f"failed {line['failed']}")
        if digests[0] != digests[1]:
            return fail(f"{workload}: digests differ between two runs with one seed")
        if len(counts) != 1:
            return fail(f"{workload}: attempted/failed differ between runs with one seed: {sorted(counts)}")
        print(f"ok   {workload}: digest and counts repeat")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bench, bench["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return fail("the benchmark ran without the program's sources")
    print(f"ok   without the program's sources: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
