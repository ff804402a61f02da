"""The four workloads: inputs made from a seed, one op each, and checks.

A workload builds a pool of requests in ``setup`` (timed; it calls the
program's state constructors and writes state files), runs one request per
``run`` call (the timed op) and turns a result into canonical bytes. The
first time a request is seen its output is checked against the oracle;
later repeats must reproduce the same bytes.
"""

from __future__ import annotations

import compileall
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

FAMILY_DOMAINS = {
    "rho_t": (-0.79, 0.79),
    "rho_a": (1 / math.sqrt(2), 1.0),
    "isotropic": (-1 / 16, 1.0),  # the realigned trace vanishes at -1/8
    "alpha_state": (0.0, 1.0),
}
FAMILY_DIM = {"rho_t": 2, "rho_a": 3, "isotropic": 3, "alpha_state": 3}
BOUNDARY_REGIONS = {
    "rho_t": ((-0.79, -0.13, 2), (-0.1, 0.1, 2), (0.13, 0.79, 2)),
    "rho_a": ((1 / math.sqrt(2), 1.0, 6),),
    "isotropic": ((-1 / 16, 0.24, 2), (0.26, 1.0, 4)),
    "alpha_state": ((0.01, 0.99, 6),),
}
VERDICT_TOL = 1e-9  # the CLI's default --tol
BOUNDARY_TOL = 1e-7
CONSOLE = "import sys; from spar.cli import entry; sys.exit(entry())"


@dataclass
class Request:
    key: str
    kind: str
    cells: int
    d: int | None = None
    args: list = field(default_factory=list)
    state: object = None  # DensityMatrix the oracle checks against
    p: float | None = None
    group: str | None = None  # requests timed as one (default: the key)


@dataclass
class Crash:
    error: str


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    from spar.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _num(x: float) -> str:
    return repr(float(x))


def _uniform(rng, lo, hi) -> float:
    return float(lo + (hi - lo) * rng.random())


def _strata(rng, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi]."""
    return [float(lo + (hi - lo) * (i + rng.random()) / n) for i in range(n)]


def _family_oracle(family: str, param: float) -> oracle.StateOracle:
    from spar.sweeps import family_state

    return oracle.StateOracle(family_state(family, param).matrix, FAMILY_DIM[family])


def _parse_grid(spec: str) -> list[float]:
    lo, hi, n = spec.split(":")
    lo, hi, n = float(lo), float(hi), int(n)
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + step * i for i in range(n)]


def _parse_sweep_csv(text: str) -> list[dict]:
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        parsed = {k: (float(v) if v != "" else None) for k, v in row.items()}
        parsed["violated"] = int(row["violated"])
        rows.append(parsed)
    return rows


def _sweep_args(rng, family: str, n_params: int, n_ps: int) -> list[str]:
    lo, hi = FAMILY_DOMAINS[family]
    a, b = sorted(_uniform(rng, lo, hi) for _ in range(2))
    # the '=' form keeps a negative range from reading as an option
    return ["sweep", "--family", family, f"--param-range={_num(a)}:{_num(b)}:{n_params}", f"--p-range=0:1:{n_ps}"]


def check_sweep_output(argv: list[str], text: str) -> list[str]:
    family = argv[2]
    params = _parse_grid(argv[3].split("=", 1)[1])
    ps = _parse_grid(argv[4].split("=", 1)[1])
    oracles = [_family_oracle(family, x) for x in params]
    return oracle.check_sweep(_parse_sweep_csv(text), oracles, params, ps, VERDICT_TOL)


def near_psd_state(d: int, eps: float, seed: int):
    """rho ~ rho_SS/2 + I/(2 d^2) - eps H (x) conj(H): R has a tiny negative eigenvalue."""
    from spar import random_schmidt_symmetric, validate_density

    rng = np.random.default_rng(seed)
    ss = random_schmidt_symmetric(d, d, rng).matrix
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = g + g.conj().T
    h /= np.linalg.norm(h)
    m = 0.5 * ss + 0.5 * np.eye(d * d) / (d * d) - eps * np.kron(h, h.conj())
    return validate_density(m / np.trace(m).real, (d, d))


def ginibre(rng, d: int) -> np.ndarray:
    """A random_density state whose realigned spectrum is clearly complex.

    Most Ginibre states qualify; the few others are drawn again, so every
    seed yields the same number of refusals.
    """
    from spar import random_density

    while True:
        m = random_density(d * d, int(rng.integers(2**31)))
        if float(np.max(np.abs(np.linalg.eigvals(oracle.realign(m, d, d)).imag))) > 1e-5:
            return m


class Workload:
    name = ""

    def __init__(self, root: Path, work: Path, seed: int, tiny: bool):
        self.root, self.work, self.seed, self.tiny = root, work, seed, tiny
        self.pool: list[Request] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, req: Request):
        raise NotImplementedError

    def canonical(self, req: Request, result) -> bytes:
        raise NotImplementedError

    def check(self, req: Request, result) -> tuple[str, list[str]]:
        """Status (ok, refused or failed) and problems of a first result."""
        raise NotImplementedError

    def before(self, req: Request) -> None:
        """Untimed preparation of one op."""


class Reports(Workload):
    """Single-state requests through in-process ``spar.cli.main``."""

    name = "reports"

    def setup(self) -> None:
        from spar import isotropic, random_schmidt_symmetric, validate_density, write_state_file

        rng = np.random.default_rng(self.seed)
        n = 1 if self.tiny else None
        states_dir = self.work / "states"
        shutil.rmtree(states_dir, ignore_errors=True)
        states_dir.mkdir(parents=True)
        # groups of states of one kind; random parameters are stratified so
        # that every seed yields the same mix of dimensions and verdicts
        groups = [[["--family", family, "--param", _num(x)] for x in _strata(rng, lo, hi, n or 12)]
                  for family, (lo, hi) in FAMILY_DOMAINS.items()]
        files = [[isotropic(b, d) for b in _strata(rng, -1 / (d * d - 1) / 2, 1.0, n or 6)] for d in range(2, 7)]
        files += [[random_schmidt_symmetric(d, d, int(rng.integers(2**31))) for _ in range(n or 6)]
                  for d in range(2, 6)]
        # near-PSD realignments: the unsound-psd cases
        files += [[near_psd_state(d, eps, int(rng.integers(2**31))) for _ in range(n or 4)]
                  for d in (3, 4) for eps in (1e-4, 1e-6, 1e-8)]
        # Ginibre states with a complex realigned spectrum: refused
        files += [[validate_density(ginibre(rng, d), (d, d)) for _ in range(n or 4)] for d in (2, 3)]
        states = {}
        for group in files:
            paths = []
            for rho in group:
                path = (states_dir / f"state{len(states):03d}.json").relative_to(self.root).as_posix()
                write_state_file(path, rho)
                states[path] = rho
                paths.append(["--state", path])
            groups.append(paths)

        pool = []
        for group in groups:
            # about one estimate-m1 per three analyze requests, in every group
            for command, chosen in (("analyze", group), ("estimate-m1", group[::3])):
                for source, p in zip(chosen, rng.permutation(_strata(rng, 0.0, 1.0, len(chosen)))):
                    rho = states.get(source[1])
                    d = rho.dim_a if rho is not None else FAMILY_DIM[source[1]]
                    argv = [command, *source, "--p", _num(p)]
                    pool.append(Request(" ".join(argv), command, 1, d, argv, rho, float(p)))
        self.pool = [pool[int(i)] for i in rng.permutation(len(pool))]

    def run(self, req):
        return _run_cli(req.args)

    def canonical(self, req, result) -> bytes:
        code, out, _ = result
        return f"{code}\n{out}".encode()

    def check(self, req, result):
        code, out, err = result
        if code == 3:
            return "refused", [err.strip()]
        if code != 0:
            return "failed", [f"exit code {code}: {err.strip()}"]
        if req.state is None:
            o = _family_oracle(req.args[2], float(req.args[4]))
        else:
            o = oracle.StateOracle(req.state.matrix, req.d)
        record = json.loads(out)
        if req.kind == "analyze":
            problems = oracle.check_analyze(record, o, req.p, VERDICT_TOL)
        else:
            problems = oracle.check_estimate(record, o, req.p)
        return ("failed" if problems else "ok"), problems


class DetectionMap(Workload):
    """In-process ``spar sweep`` commands, 101 p values per parameter, CSV to a file."""

    name = "detection_map"

    def setup(self) -> None:
        from spar.sweeps import family_state

        rng = np.random.default_rng(self.seed)
        self.out_path = self.work / "sweep.csv"
        self.work.mkdir(parents=True, exist_ok=True)
        n_ps = 11 if self.tiny else 101
        pool = []
        n_params = 2 if self.tiny else 5  # one grid size, so the latency percentiles sit in wide clusters
        for family in FAMILY_DOMAINS:
            for _ in range(1 if self.tiny else 6):
                args = _sweep_args(rng, family, n_params, n_ps)
                # every grid point must be a valid state
                for x in _parse_grid(args[3].split("=", 1)[1]):
                    family_state(family, x)
                pool.append(Request(" ".join(args), "sweep", n_params * n_ps, FAMILY_DIM[family],
                                    [*args, "--out", str(self.out_path)]))
        self.pool = [pool[int(i)] for i in rng.permutation(len(pool))]

    def before(self, req):
        with contextlib.suppress(FileNotFoundError):
            self.out_path.unlink()

    def run(self, req):
        return _run_cli(req.args)

    def canonical(self, req, result) -> bytes:
        code, _, _ = result
        text = self.out_path.read_bytes() if self.out_path.exists() else b""
        return f"{code}\n".encode() + text

    def check(self, req, result):
        code, _, err = result
        if code == 3:
            return "refused", [err.strip()]
        if code != 0:
            return "failed", [f"exit code {code}: {err.strip()}"]
        problems = check_sweep_output(req.args, self.out_path.read_text())
        return ("failed" if problems else "ok"), problems


class Boundaries(Workload):
    """``spar.sweeps.violation_p_max`` at tol 1e-7, one boundary per op."""

    name = "boundaries"

    def setup(self) -> None:
        from spar import isotropic
        from spar.sweeps import family_state

        rng = np.random.default_rng(self.seed)
        pool = []
        # (lo, hi, count) regions, each either detected or undetected at p = 0
        # for the whole region, so every seed yields the same mix of quick
        # (undetected) and bisected boundaries
        for family, regions in BOUNDARY_REGIONS.items():
            for lo, hi, count in regions:
                for x in _strata(rng, lo, hi, 1 if self.tiny else count):
                    pool.append(Request(f"{family}({_num(x)})", "boundary", 1, FAMILY_DIM[family],
                                        state=family_state(family, x)))
        for d in range(2, 6):
            onset = 1 / (d + 1)  # isotropic states are detected at p = 0 above this
            for lo, hi, count in ((0.0, onset - 0.01, 1), (onset + 0.01, 1.0, 3)):
                for beta in _strata(rng, lo, hi, 1 if self.tiny else count):
                    pool.append(Request(f"isotropic_d{d}({_num(beta)})", "boundary", 1, d,
                                        state=isotropic(beta, d)))
        self.pool = [pool[int(i)] for i in rng.permutation(len(pool))]

    def run(self, req):
        from spar.sweeps import violation_p_max

        return violation_p_max(req.state, tol=BOUNDARY_TOL)

    def canonical(self, req, result) -> bytes:
        return repr(result).encode()

    def check(self, req, result):
        o = oracle.StateOracle(req.state.matrix, req.d)
        problems = oracle.check_boundary(result, o, BOUNDARY_TOL, VERDICT_TOL)
        return ("failed" if problems else "ok"), problems


class ColdCli(Workload):
    """Fresh-process commands, each timed from spawn to exit, in rounds of five."""

    name = "cli_cold"
    ROUND = ("import", "analyze", "sweep", "table1", "reproduce")

    def __init__(self, *args):
        super().__init__(*args)
        self.traced_child = None  # set to a spans path prefix for a traced run
        self.env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.tree = self.work / "tree"
        shutil.rmtree(self.tree, ignore_errors=True)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        shutil.copytree(self.root / "src", self.tree / "src", ignore=ignore)
        shutil.copytree(self.root / "scripts", self.tree / "scripts", ignore=ignore)
        # bytecode as an installed package has it; the copy's imports stay cold-process imports
        compileall.compile_dir(self.tree, quiet=1)
        self.reference = reference_results(self.root)
        analyze = []
        for family, (lo, hi) in FAMILY_DOMAINS.items():
            for _ in range(2):
                x, p = _uniform(rng, lo, hi), _uniform(rng, 0.0, 1.0)
                analyze.append(["analyze", "--family", family, "--param", _num(x), "--p", _num(p)])
        sweeps = [_sweep_args(rng, family, 3, 11) for family in FAMILY_DOMAINS]
        self.analyze = [analyze[int(i)] for i in rng.permutation(len(analyze))]
        self.sweeps = [sweeps[int(i)] for i in rng.permutation(len(sweeps))]
        self.reproduce_cells = sum(rows for _, rows in self.reference.values())
        # every distinct command once, so each run checks the same requests
        pool = {}
        for r in range(max(len(self.analyze), len(self.sweeps))):
            for req in self.round(r):
                pool.setdefault(req.key, req)
        self.pool = list(pool.values())

    def round(self, r: int) -> list[Request]:
        """The five commands of round r; analyze and sweep cycle through their pools."""
        a = self.analyze[r % len(self.analyze)]
        s = self.sweeps[r % len(self.sweeps)]
        # start-up dominates a cold command, so the variants of a kind are timed as one
        return [
            Request("import", "import", 0),
            Request(" ".join(a), "analyze", 1, FAMILY_DIM[a[2]], a, group="analyze"),
            Request(" ".join(s), "sweep", 3 * 11, FAMILY_DIM[s[2]], s, group="sweep"),
            Request("table1", "table1", 9, 3, ["table1"]),
            Request("reproduce", "reproduce", self.reproduce_cells),
        ]

    def command(self, req: Request, spans: Path | None) -> tuple[list[str], dict]:
        env = self.env
        if req.kind == "reproduce":
            env = {**self.env, "PYTHONPATH": str(self.tree / "src")}
        if spans is not None:
            child = [sys.executable, str(self.root / "benchmarks" / "cold_child.py"), str(spans)]
            if req.kind == "import":
                return [*child, "import"], env
            if req.kind == "reproduce":
                return [*child, "script", str(self.tree / "scripts" / "reproduce_results.py")], env
            return [*child, "cli", *req.args], env
        if req.kind == "import":
            return [sys.executable, "-c", "import spar"], env
        if req.kind == "reproduce":
            return [sys.executable, str(self.tree / "scripts" / "reproduce_results.py")], env
        return [sys.executable, "-c", CONSOLE, *req.args], env

    def before(self, req):
        if req.kind == "reproduce":
            shutil.rmtree(self.tree / "results", ignore_errors=True)

    def run(self, req, spans: Path | None = None):
        cmd, env = self.command(req, spans)
        proc = subprocess.run(cmd, env=env, cwd=self.work, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def produced(self) -> dict[str, bytes]:
        out = self.tree / "results"
        if not out.is_dir():
            return {}
        return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}

    def canonical(self, req, result) -> bytes:
        code, out, _ = result
        if req.kind == "reproduce":
            files = self.produced()
            out = b"".join(name.encode() + b"\n" + data for name, data in files.items())
        return f"{code}\n".encode() + out

    def check(self, req, result):
        code, out, err = result
        if code == 3:
            return "refused", [err.decode(errors="replace").strip()]
        if code != 0:
            return "failed", [f"exit code {code}: {err.decode(errors='replace').strip()[-500:]}"]
        text = out.decode()
        problems = []
        if req.kind == "import":
            problems = [f"mismatch: import printed {text!r}"] if text else []
        elif req.kind == "analyze":
            in_code, in_out, _ = _run_cli(req.args)
            if (in_code, in_out) != (code, text):
                problems.append("mismatch: cold analyze bytes differ from the in-process run")
            else:
                o = _family_oracle(req.args[2], float(req.args[4]))
                problems = oracle.check_analyze(json.loads(text), o, float(req.args[6]), VERDICT_TOL)
        elif req.kind == "sweep":
            problems = check_sweep_output(req.args, text)
        elif req.kind == "table1":
            committed = self.root / "results" / "table1.csv"
            problems = check_table1(text, committed.read_text() if committed.is_file() else None)
        else:
            problems = compare_results(self.produced(), self.reference)
        return ("failed" if problems else "ok"), problems


def check_table1(text: str, committed: str | None) -> list[str]:
    from spar import alpha_state

    problems = []
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        alpha = float(row["alpha"])
        p_max = None if row["p_max"] == "" else float(row["p_max"])
        o = oracle.StateOracle(alpha_state(alpha).matrix, 3)
        problems += [f"alpha={alpha}: {m}" for m in oracle.check_boundary(p_max, o, BOUNDARY_TOL, VERDICT_TOL)]
    if committed is not None:
        want = [(float(r["alpha"]), float(r["p_max"])) for r in csv.DictReader(io.StringIO(committed))]
        got = [(float(r["alpha"]), float(r["p_max"])) for r in rows]
        if got != want:
            problems.append("mismatch: table1 values differ from results/table1.csv")
    return problems


def compare_results(produced: dict[str, bytes], reference: dict[str, tuple[str, int]]) -> list[str]:
    """One problem per committed CSV that the copy did not reproduce byte for byte."""
    problems = []
    for name, (digest, _) in reference.items():
        if name not in produced or hashlib.sha256(produced[name]).hexdigest() != digest:
            problems.append(f"mismatch: {name} is not byte-identical to results/{name}")
    for name in sorted(set(produced) - set(reference)):
        problems.append(f"mismatch: unexpected output {name}")
    return problems


REFERENCE_DIGESTS = Path(__file__).with_name("results_sha256.json")


def reference_results(root: Path) -> dict[str, tuple[str, int]]:
    """sha256 and row count of each committed results/*.csv.

    A checkout without results/ falls back to the digests recorded beside
    this file, taken from the committed CSVs.
    """
    results = root / "results"
    files = sorted(results.glob("*.csv")) if results.is_dir() else []
    if not files:
        return {name: tuple(v) for name, v in json.loads(REFERENCE_DIGESTS.read_text()).items()}
    return {p.name: (hashlib.sha256(p.read_bytes()).hexdigest(), p.read_bytes().count(b"\n") - 1) for p in files}


WORKLOADS = {w.name: w for w in (Reports, DetectionMap, Boundaries, ColdCli)}
