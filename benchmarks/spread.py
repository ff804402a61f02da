#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 benchmarks/spread.py --workload reports --seeds 1-10 [--seconds 15]

For each metric prints the median over the runs and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of that median, next to the metric's bound in BENCHMARK.json. A spread above
a third of the bound is flagged. ``--workload all`` covers every workload.

``--save PATH`` writes the medians as JSON; ``--against PATH`` compares this
set's medians with a saved set and flags every metric that is worse by more
than its bound (setup_s included), and every seed whose attempted or failed
count differs from the saved set's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--save", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}
    medians: dict[str, dict] = {}
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        runs = []
        for seed in seeds(args.seeds):
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(line)
            counts = medians.setdefault(name, {}).setdefault("counts", {})
            counts[str(seed)] = [line["attempted"], line["failed"]]
            before = earlier.get(name, {}).get("counts", {}).get(str(seed))
            if before is not None and before != counts[str(seed)]:
                print(f"{name} seed {seed}: counts differ from the saved set's {before}  <-- not repeatable")
                ok = False
            print(f"{name} seed {seed}: attempted {line['attempted']} failed {line['failed']} "
                  f"correct {line['correct']}", flush=True)
        print(f"{name}: {'metric':<14} {'median':>12} {'iqr/median':>11} {'bound':>7}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            medians[name][metric] = median
            s = spread(values)
            flag = "" if metric == "setup_s" or s < bound / 3 else "  <-- above bound/3"
            before = earlier.get(name, {}).get(metric)
            if before:
                change = (median - before) / before * (1 if better[metric] == "lower" else -1)
                flag += f"  worse by {change:+.3f}" + ("  <-- beyond bound" if change > bound else "")
            ok = ok and "<--" not in flag
            print(f"{name}: {metric:<14} {median:>12.6g} {s:>11.4f} {bound:>7}{flag}")
    if args.save:
        args.save.write_text(json.dumps(medians, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
