#!/usr/bin/env python3
"""Benchmark of the spar package, driven through its public entry points.

    python3 benchmarks/run.py --workload reports --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 5   # every workload, one table

Run from anywhere; the package is imported from ``src/`` next to this
directory. Workloads (see ``workloads.py``): ``reports``, ``detection_map``,
``boundaries`` and ``cli_cold``. One process, one thread, one client in a
closed loop: the next op starts when the previous one has been checked. BLAS
is pinned to one thread here and in every child process.

A run sets up its inputs, runs one untimed warm-up pass that checks every
output against the numpy oracle, then measures for ``--seconds`` while
setting up again between ops (``setup_s`` is the median of
``SETUP_REPEATS`` set-ups) and timing a reference task that scales the
end-to-end times to a nominal machine speed (``Calibration``; for
``cli_cold`` a fresh-process reference, ``ColdCalibration``). Repeats of a
request must give the same bytes as its checked first run. With
``--trace 1`` half the time runs untraced and half with every layer wrapped
(``tracer.py``); only per-layer metrics and the tracing overhead are
reported then. See README.md for the workloads and metrics.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``attempted`` counts the distinct requests of the
run (all of them run and checked in the warm-up pass, so the count depends on
the seed alone, not on how many ops fit in ``--seconds``); ``failed`` counts
those that crashed, disagreed with the oracle, changed bytes between repeats,
or issued a certificate the exact spectrum contradicts (``unsound``).
``correct`` is false when any op failed for a reason other than an unsound
certificate: those are a known defect of the program, reported through
``failed`` and ``pass_share``.
The full result, with provenance and the first problems found, is written
to ``.bench_work/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 15
IMPORT_REPEATS = 3
NAMES = ("reports", "detection_map", "boundaries", "cli_cold")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "cells_per_s": "1/s",
    "pass_share": "share",
}


def per_layer_units() -> dict[str, str]:
    from tracer import SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls_per_op"] = "calls/op"
        units[f"{name}.self_ms_per_op"] = "ms/op"
    units["linalg.power_trace.matmuls_per_op"] = "matmuls/op"
    units["refused_share"] = "share"
    for d in range(2, 7):
        units[f"d{d}.op_ms_p50"] = "ms"
    units["import.numpy_ms"] = "ms"
    units["import.spar_self_ms"] = "ms"
    units["tracing_overhead_ms_per_op"] = "ms/op"
    return units


class Sample:
    """Measured ops of one phase.

    Latency percentiles credit each op with the mean time of its request
    (``group``) over its repetitions in the phase. On a shared machine the
    CPU runs in fast and slow modes for seconds at a time; a plain median of
    op times jumps between the modes, while a mean over repetitions moves
    only with the share of time spent in each. Rates are unaffected: the
    credited times sum to the measured ones.
    """

    def __init__(self):
        self.times: list[float] = []
        self.groups: list[str] = []
        self.cells = 0
        self.dims: list[int | None] = []
        self.kinds: list[str] = []
        self.statuses: list[str] = []

    def add(self, seconds: float, req, status: str) -> None:
        self.times.append(seconds)
        self.groups.append(req.group or req.key)
        self.cells += req.cells
        self.dims.append(req.d)
        self.kinds.append(req.kind)
        self.statuses.append(status)

    def credited(self) -> list[float]:
        total: dict[str, float] = {}
        count: dict[str, int] = {}
        for group, t in zip(self.groups, self.times):
            total[group] = total.get(group, 0.0) + t
            count[group] = count.get(group, 0) + 1
        return [total[g] / count[g] for g in self.groups]

    def p50_ms(self, dim=None) -> float:
        times = [t for t, d in zip(self.credited(), self.dims) if dim is None or d == dim]
        return statistics.median(times) * 1e3 if times else 0.0

    def p50_ms_by_kind(self) -> dict[str, float]:
        credited = self.credited()
        return {kind: statistics.median(t for t, k in zip(credited, self.kinds) if k == kind) * 1e3
                for kind in dict.fromkeys(self.kinds)}


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


class Runner:
    """Closed loop over a workload's requests, with checks between ops."""

    def __init__(self, workload):
        self.wl = workload
        self.cold = workload.name == "cli_cold"
        self.refs: dict[str, tuple[bytes, str, list[str]]] = {}
        self.problems: dict[str, list[str]] = {}
        self.failed_keys: set[str] = set()
        self.incorrect = 0
        self.op = 0

    def batch(self, i: int):
        if self.cold:
            return self.wl.round(i)
        return [self.wl.pool[i % len(self.wl.pool)]]

    def one(self, req, tracer=None):
        from workloads import Crash

        self.wl.before(req)
        spans = None
        if tracer is not None:
            tracer.op = self.op
            if self.cold:
                spans = self.wl.work / "child-spans.json"
        start = perf_counter()
        try:
            result = self.wl.run(req, spans) if spans is not None else self.wl.run(req)
        except Exception as exc:  # a crash is a failed op, not a benchmark error
            result = Crash(f"{type(exc).__name__}: {exc}")
        elapsed = perf_counter() - start
        if spans is not None and spans.exists():
            tracer.absorb(json.loads(spans.read_text()), self.op)
            spans.unlink()
        self.op += 1
        canon, status = self.verify(req, result)
        return elapsed, canon, status

    def verify(self, req, result) -> tuple[bytes, str]:
        from workloads import Crash

        crashed = isinstance(result, Crash)
        canon = b"crash" if crashed else self.wl.canonical(req, result)
        ref = self.refs.get(req.key)
        if ref is None:
            if crashed:
                status, problems = "failed", [f"crash: {result.error}"]
            else:
                try:
                    status, problems = self.wl.check(req, result)
                except Exception as exc:
                    status, problems = "failed", [f"mismatch: output could not be checked: {type(exc).__name__}: {exc}"]
            self.refs[req.key] = ref = (canon, status, problems)
            if status == "failed":
                self.note(req.key, problems)
        elif ref[0] != canon:
            self.note(req.key, ["mismatch: output differs from the first run of this request"])
            return canon, "failed"
        return canon, ref[1]

    def note(self, key: str, problems: list[str]) -> None:
        self.failed_keys.add(key)
        self.problems.setdefault(key, problems)
        if any(not p.startswith("unsound:") for p in problems):
            self.incorrect += 1

    @property
    def attempted(self) -> int:
        """Distinct requests run and checked; repeats of one count once."""
        return len(self.refs)

    @property
    def failed(self) -> int:
        return len(self.failed_keys)

    def pass_share(self) -> float:
        return 1.0 - self.failed / self.attempted

    def warmup(self) -> str:
        """One untimed pass over every distinct request; returns the digest of its outputs."""
        digest = hashlib.sha256()
        for req in self.wl.pool:
            _, canon, _ = self.one(req)
            digest.update(req.key.encode() + b"\0" + canon + b"\0")
        return digest.hexdigest()

    def measure(self, seconds: float, tracer=None, between=None) -> Sample:
        """Ops for ``seconds``; ``between()`` runs untimed after each batch."""
        sample = Sample()
        deadline = perf_counter() + seconds
        i = 0
        while True:
            for req in self.batch(i):
                elapsed, _, status = self.one(req, tracer)
                sample.add(elapsed, req, status)
            i += 1
            if between is not None:
                between()
            if perf_counter() >= deadline:
                return sample


def timed(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


class Calibration:
    """How fast the machine ran during a run, from a fixed reference task.

    On shared hardware the CPU's speed drifts by 20-40% over minutes, which
    moves every timing of a run alike. The reference task (small complex
    SVDs and interpreter work, the mix of the workloads' ops, none of it
    from spar) is timed between ops; end-to-end times are reported scaled
    to the speed at which the task takes ``NOMINAL_S``, so that runs made
    at different moments compare. The unscaled figures go to the result file.
    """

    NOMINAL_S = 0.48e-3  # the task's warm time on the VM the benchmark was defined on
    EVERY_S = 0.25

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        self.svd = np.linalg.svd
        self.samples: list[float] = []
        self.due = 0.0

    def task(self) -> None:
        for _ in range(20):
            self.svd(self.matrix, compute_uv=False)
        json.dumps([{"k": i, "v": float(i)} for i in range(200)])

    def sample(self) -> None:
        # the best of five runs: warm caches, so what the last op left in
        # them does not leak into the machine's speed
        if perf_counter() >= self.due:
            self.samples.append(min(timed(self.task) for _ in range(5)))
            self.due = perf_counter() + self.EVERY_S

    @property
    def factor(self) -> float:
        """Multiplier that takes a measured time to the nominal speed."""
        return self.NOMINAL_S / statistics.mean(self.samples)


class ColdCalibration(Calibration):
    """The reference for fresh-process commands: a fresh ``import numpy``.

    Process start-up drifts with more than the CPU's speed (the kernel's
    work on fork, exec and page faults), so the in-process task tracks it
    poorly: on the VM the benchmark was defined on, the ten-second means of
    a cold ``import spar`` varied by 5.8% (coefficient of variation), 5.2%
    relative to the in-process task and 1.6% relative to a cold
    ``import numpy``, which is not spar code. One sample per round of
    commands. ``NOMINAL_S`` is its time at the speed at which the
    in-process task takes ``Calibration.NOMINAL_S``, from the two measured
    side by side.
    """

    NOMINAL_S = 0.108

    def __init__(self, env: dict, cwd: Path):
        self.cmd = [sys.executable, "-c", "import numpy"]
        self.env, self.cwd = env, cwd
        self.samples = []

    def sample(self) -> None:
        self.samples.append(timed(lambda: subprocess.run(self.cmd, env=self.env, cwd=self.cwd, check=True,
                                                         capture_output=True, timeout=60)))


def scaled(metrics: dict[str, float], factor: float) -> dict[str, float]:
    out = dict(metrics)
    for name in ("setup_s", "op_ms_p50", "op_ms_p90"):
        out[name] *= factor
    for name in ("ops_per_s", "cells_per_s"):
        out[name] /= factor
    return out


def end_to_end(sample: Sample, setup_s: float, pass_share: float) -> dict[str, float]:
    busy = sum(sample.times)
    credited = sample.credited()
    return {
        "setup_s": setup_s,
        "ops_per_s": len(sample.times) / busy,
        "op_ms_p50": statistics.median(credited) * 1e3,
        "op_ms_p90": percentile(credited, 90) * 1e3,
        "cells_per_s": sample.cells / busy,
        "pass_share": pass_share,
    }


def import_profile(env: dict) -> tuple[float, float]:
    """Median numpy import and spar's own import time, from -X importtime."""
    numpy_ms, spar_ms = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spar"], env=env,
                              capture_output=True, text=True, timeout=60, cwd=WORK)
        numpy_us = spar_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative, name = (part.strip() for part in line[len("import time:"):].split("|"))
            if not self_us.isdigit():
                continue
            if name == "numpy":
                numpy_us = int(cumulative)
            if name == "spar" or name.startswith("spar."):
                spar_us += int(self_us)
        numpy_ms.append(numpy_us / 1e3)
        spar_ms.append(spar_us / 1e3)
    return statistics.median(numpy_ms), statistics.median(spar_ms)


def per_layer(untraced: Sample, traced: Sample, tracer, env: dict) -> dict[str, float]:
    from tracer import layer_metrics

    metrics = layer_metrics(tracer, len(traced.times))
    statuses = untraced.statuses + traced.statuses
    metrics["refused_share"] = statuses.count("refused") / len(statuses)
    for d in range(2, 7):
        metrics[f"d{d}.op_ms_p50"] = untraced.p50_ms(d)
    metrics["import.numpy_ms"], metrics["import.spar_self_ms"] = import_profile(env)
    metrics["tracing_overhead_ms_per_op"] = traced.p50_ms() - untraced.p50_ms()
    return metrics


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked through its own API."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_reported": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def run_one(args) -> int:
    import numpy

    import spar
    from tracer import Tracer
    from workloads import WORKLOADS

    if not Path(spar.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        print(f"error: spar imported from {spar.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](ROOT, work, args.seed, args.tiny)
    try:
        setup_times = [timed(wl.setup)]
        runner = Runner(wl)
        digest = runner.warmup()
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        tracer = None
        raw, calibration = None, None
        if args.trace:
            untraced = runner.measure(args.seconds / 2)
            tracer = Tracer()
            if not runner.cold:
                tracer.install()
            try:
                traced = runner.measure(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(untraced, traced, tracer, env)
            statuses = untraced.statuses + traced.statuses
            by_kind = untraced.p50_ms_by_kind()
        else:
            # the other set-ups are spread over the run, so that their median
            # sees the machine's fast and slow spells as the ops do
            due = [perf_counter() + args.seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]
            calibration = ColdCalibration(env, work) if runner.cold else Calibration()

            def between():
                calibration.sample()
                if due and perf_counter() >= due[0]:
                    due.pop(0)
                    setup_times.append(timed(wl.setup))

            sample = runner.measure(args.seconds, between=between)
            while len(setup_times) < SETUP_REPEATS:
                setup_times.append(timed(wl.setup))
            calibration.sample()
            raw = end_to_end(sample, statistics.median(setup_times), runner.pass_share())
            metrics = scaled(raw, calibration.factor)
            statuses = sample.statuses
            by_kind = sample.p50_ms_by_kind()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END
    line = {
        "correct": runner.incorrect == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **{k: line[k] for k in ("correct", "attempted", "failed")},
        "timed_ops": len(statuses),
        "timed_ops_failed": statuses.count("failed"),
        "refused": statuses.count("refused"),
        "digest": digest,
        "setup_samples_s": setup_times,
        "op_ms_p50_by_kind": by_kind,
        "metrics": line["metrics"],
        "unscaled_metrics": raw,
        "speed_factor": calibration.factor if calibration else None,
        "problems": runner.problems,
        "provenance": provenance(numpy),
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write(results / f"{stem}-spans.json")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  attempted {line['attempted']}  "
          f"failed {line['failed']}  refused {result['refused']}  correct {str(line['correct']).lower()}")
    for name, m in line["metrics"].items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    print("op_ms_p50 by kind: " + ", ".join(f"{k} {v:.4g} ms" for k, v in by_kind.items()))
    if calibration:
        print(f"times scaled by {calibration.factor:.4g} to the nominal machine speed; unscaled: "
              + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()))
    print(f"digest {digest}")
    for key, problems in list(runner.problems.items())[:5]:
        print(f"problem [{key}]: {problems[0]}")
    if len(runner.problems) > 5:
        print(f"... {len(runner.problems) - 5} more failing requests in {results / (stem + '.json')}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    rows = []
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    if not args.trace:
        print()
        print(f"{'workload':<14} {'attempted':>9} {'failed':>7}  " + "  ".join(f"{n:>12}" for n in END_TO_END))
        print(f"{'':<14} {'':>9} {'':>7}  " + "  ".join(f"{u:>12}" for u in END_TO_END.values()))
        for name, line in rows:
            values = "  ".join(f"{line['metrics'][n]['value']:>12.5g}" for n in END_TO_END)
            print(f"{name:<14} {line['attempted']:>9} {line['failed']:>7}  {values}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spar" / "__init__.py").is_file():
        print(f"error: no spar package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = "1"  # before numpy loads; inherited by child processes
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
