"""Independent numpy oracle for the program's outputs.

Everything is recomputed from the state matrix with numpy alone: the
realignment is built by index arithmetic (not the package's reshape), trace
norms come from numpy's SVD and spectra from numpy's eigensolvers. Checks
return a list of problems; an empty list means the output agrees.

Problems are tagged ``mismatch:`` (a reported number disagrees with the
recomputation) or ``unsound:`` (a certificate that the exact spectrum
contradicts: ``psd`` with a negative eigenvalue of R beyond rounding, or a
CP certificate whose SPA output has a negative eigenvalue).
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)
RTOL = 1e-9  # relative agreement required of reported numbers
GUARD = 1e-10  # verdicts this close to their cut may go either way
PSD_C = 100.0  # soundness slack: lambda_min >= -PSD_C * n * eps * scale


def realign(m: np.ndarray, da: int, db: int) -> np.ndarray:
    """R[(i,k),(j,l)] = M[(i,j),(k,l)] by explicit index arrays."""
    i, j, k, l = np.meshgrid(np.arange(da), np.arange(db), np.arange(da), np.arange(db), indexing="ij")
    out = np.empty((da * da, db * db), dtype=np.complex128)
    out[i * da + k, j * db + l] = m[i * db + j, k * db + l]
    return out


def trace_norm(m: np.ndarray) -> np.ndarray:
    """Trace norm of one matrix or of a stack of matrices."""
    return np.linalg.svd(m, compute_uv=False).sum(axis=-1)


def swap(d: int) -> np.ndarray:
    idx = np.arange(d * d)
    out = np.zeros((d * d, d * d))
    out[(idx % d) * d + idx // d, idx] = 1.0
    return out


def close(got, want, scale: float = 1.0) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(float(got) - float(want)) <= RTOL * max(abs(float(want)), scale) + 1e-13


class StateOracle:
    """Spectral data of one d x d state, each computed once."""

    def __init__(self, matrix: np.ndarray, d: int):
        self.rho = np.asarray(matrix, dtype=np.complex128)
        self.d = d
        self.n = d * d
        self.r = realign(self.rho, d, d)
        self.sigma = np.linalg.svd(self.r, compute_uv=False)
        self.trace = float(np.trace(self.r).real)
        self.lambda_min = float(np.min(np.linalg.eigvals(self.r).real))
        self.norm2 = float(self.sigma[0])
        m1 = self.trace
        m2 = float(np.trace(self.r @ self.r).real)
        mean = m1 / self.n
        variance = m2 / self.n - mean * mean
        self.lower_bound = mean - math.sqrt((self.n - 1) * max(0.0, variance))
        self.k = max(0.0, -self.lower_bound)

    def spa(self, p):
        """SPA output at p, or a stack of them for an array of p."""
        p = np.asarray(p, dtype=float)[..., None, None]
        eye = np.eye(self.n)
        return (p / self.n) * eye + ((1.0 - p) / self.trace) * self.r

    def bound(self, p):
        return p + (1.0 - p) / self.trace

    def margin(self, p, tol: float):
        """||SPA(p)||_1 - bound(p) - tol; detection iff positive."""
        return trace_norm(self.spa(p)) - self.bound(np.asarray(p, dtype=float)) - tol

    def psd_is_sound(self) -> bool:
        return self.lambda_min >= -PSD_C * self.n * EPS * max(self.norm2, 1.0)

    def threshold(self) -> float:
        dk = self.n * self.k
        return dk / (self.trace + dk)


def _verdict_ok(reported: str, score: float, cut: float) -> bool:
    if abs(score - cut) <= GUARD * max(1.0, abs(cut)):
        return reported in ("entangled", "inconclusive")
    return reported == ("entangled" if score > cut else "inconclusive")


def q_scores(o: StateOracle) -> tuple[float, float | None]:
    q1 = float(np.sum(o.sigma**2) ** 2 - np.sum(o.sigma**3))
    q2 = None
    if o.d == 3:
        s = np.linalg.svd(o.rho, compute_uv=False)[:8]
        q2 = 56.0 * float(np.prod(s**2)) ** (1.0 / 8.0) + o.trace - 1.0
    return q1, q2


def check_threshold(o: StateOracle, psd: bool, l: float, k: float, lower: float | None) -> list[str]:
    """Threshold data: moments recomputed, l = 0 only for a PSD realignment."""
    problems = []
    if lower is not None and not close(lower, o.lower_bound, scale=max(1.0, o.norm2)):
        problems.append(f"mismatch: lower_bound {lower} != {o.lower_bound}")
    if not close(k, o.k, scale=max(1.0, o.norm2)):
        problems.append(f"mismatch: k {k} != {o.k}")
    if psd or l == 0.0:
        if not o.psd_is_sound():
            problems.append(f"unsound: psd / l = 0 but lambda_min(R) = {o.lambda_min:.3e}")
    elif not close(l, o.threshold()):
        problems.append(f"mismatch: l {l} != {o.threshold()}")
    return problems


def check_analyze(record: dict, o: StateOracle, p: float, tol: float) -> list[str]:
    problems = []

    def expect(label, got, want, scale=1.0):
        if not close(got, want, scale):
            problems.append(f"mismatch: {label} {got} != {want}")

    spa = o.spa(p)
    score = float(np.sum(o.sigma))
    norm = float(trace_norm(spa))
    bound = o.bound(p)
    err = float(trace_norm(spa - o.r))
    q1, q2 = q_scores(o)
    rea, spa_r, error = record["realignment"], record["spa_r"], record["error"]
    expect("realignment.trace", rea["trace"], o.trace)
    expect("realignment.trace_norm", rea["trace_norm"], score)
    expect("spa_r.trace_norm", spa_r["trace_norm"], norm)
    expect("spa_r.upper_bound", spa_r["upper_bound"], bound)
    expect("error.norm", error["norm"], err, scale=score)
    expect("error.bound_general", error["bound_general"], p + (1.0 - p - o.trace) / o.trace * score, scale=score)
    expect("error.bound_separable", error["bound_separable"], (1.0 - p) * (1.0 - o.trace) / o.trace)
    expect("moments.q1", record["moments"]["q1"], q1, scale=max(1.0, score) ** 4)
    expect("moments.q2", record["moments"]["q2"], q2)
    if not _verdict_ok(rea["verdict"], score, 1.0 + tol):
        problems.append(f"mismatch: realignment.verdict {rea['verdict']}")
    if not _verdict_ok(spa_r["verdict"], norm, bound + tol):
        problems.append(f"mismatch: spa_r.verdict {spa_r['verdict']}")
    if not _verdict_ok(error["verdict"], err, error["bound_separable"] + tol):
        problems.append(f"mismatch: error.verdict {error['verdict']}")

    th, cert = record["spa"], record["cp_certificate"]
    expect("spa.trace_r", th["trace_r"], o.trace)
    problems += check_threshold(o, th["psd"], th["l"], th["k"], th["lower_bound"])
    if cert["certified"] != (p >= th["l"] - 1e-12):
        problems.append(f"mismatch: cp_certificate.certified {cert['certified']} at p={p}, l={th['l']}")
    if cert["certified"]:
        eigs = np.linalg.eigvals(spa)
        if float(np.min(eigs.real)) < -PSD_C * o.n * EPS:
            problems.append(f"unsound: CP certificate at p={p} but lambda_min(SPA) = {np.min(eigs.real):.3e}")
        gamma2 = float(np.max(eigs.real) / np.max(np.linalg.eigvalsh(o.rho)))
        expect("cp_certificate.gamma2", cert["gamma2"], gamma2)
        if cert["gamma1"] != 0.0:
            problems.append(f"mismatch: cp_certificate.gamma1 {cert['gamma1']}")
    return problems


def check_estimate(record: dict, o: StateOracle, p: float) -> list[str]:
    problems = []
    d2 = o.n
    s = float(np.trace(o.spa(p) @ swap(o.d)).real) / o.d
    for label, got, want in (("s", record["s"], s), ("k", record["k"], o.k), ("x", record["x"], 1.0 - d2 * s)):
        if not close(got, want, scale=max(1.0, o.norm2)):
            problems.append(f"mismatch: {label} {got} != {want}")
    k, s = record["k"], record["s"]
    roots = np.sort(np.roots([1.0, d2 * k - s, k * (1.0 - d2 * s)]).real)
    quad = record["quadratic"]
    if not (close(quad["lower"], roots[0], scale=max(1.0, d2 * k)) and close(quad["upper"], roots[-1], scale=max(1.0, d2 * k))):
        problems.append(f"mismatch: quadratic [{quad['lower']}, {quad['upper']}] != {roots.tolist()}")
    case = record["case_bounds"]
    if case["case"] not in ("case1", "case2", "quadratic") or case["lower"] > case["upper"] + 1e-12:
        problems.append(f"mismatch: case_bounds {case}")
    if case["case"] == "quadratic" and (case["lower"], case["upper"]) != (quad["lower"], quad["upper"]):
        problems.append("mismatch: quadratic case_bounds differ from the quadratic interval")
    return problems


def check_sweep(rows: list[dict], oracles: list[StateOracle], params: list[float], ps: list[float], tol: float) -> list[str]:
    """Rows of one sweep CSV against the oracle, one stacked SVD per parameter."""
    problems = []
    if len(rows) != len(params) * len(ps):
        return [f"mismatch: {len(rows)} rows for a {len(params)}x{len(ps)} grid"]
    pgrid = np.asarray(ps, dtype=float)
    for i, (param, o) in enumerate(zip(params, oracles)):
        block = rows[i * len(ps) : (i + 1) * len(ps)]
        norms = trace_norm(o.spa(pgrid))
        bounds = o.bound(pgrid)
        q1, q2 = q_scores(o)
        first = block[0]
        if first["l"] == first["l"]:  # NaN marks a refused threshold
            problems += check_threshold(o, first["l"] == 0.0, first["l"], first["k"], None)
        for j, row in enumerate(block):
            if row["param"] != param or row["p"] != ps[j]:
                problems.append(f"mismatch: grid point ({row['param']}, {row['p']}) != ({param}, {ps[j]})")
                break
            if not (close(row["traceNormSpaR"], norms[j]) and close(row["upperBound"], bounds[j])):
                problems.append(f"mismatch: cell ({param}, {ps[j]}) norm {row['traceNormSpaR']} != {norms[j]}")
                break
            verdict = "entangled" if row["violated"] == 1 else "inconclusive"
            if not _verdict_ok(verdict, norms[j], bounds[j] + tol):
                problems.append(f"mismatch: violated at ({param}, {ps[j]})")
                break
            if (row["l"], row["k"]) != (first["l"], first["k"]) and first["l"] == first["l"]:
                problems.append(f"mismatch: l, k vary along p at param {param}")
                break
        if not close(first["q1"], q1, scale=max(1.0, float(np.sum(o.sigma))) ** 4):
            problems.append(f"mismatch: q1 {first['q1']} != {q1} at param {param}")
        if not close(first["q2"], q2):
            problems.append(f"mismatch: q2 {first['q2']} != {q2} at param {param}")
    return problems


def check_boundary(p_max: float | None, o: StateOracle, tol: float, verdict_tol: float) -> list[str]:
    """Detection holds just below p_max and fails just above it."""
    delta = 10.0 * tol
    at_zero = float(o.margin(0.0, verdict_tol))
    if p_max is None:
        if at_zero > GUARD:
            return [f"mismatch: no boundary reported, but detected at p=0 by margin {at_zero:.3e}"]
        return []
    if not 0.0 <= p_max <= 1.0:
        return [f"mismatch: p_max {p_max} outside [0, 1]"]
    below = float(o.margin(max(0.0, p_max - delta), verdict_tol))
    above = float(o.margin(min(1.0, p_max + delta), verdict_tol))
    problems = []
    if below <= -GUARD:
        problems.append(f"mismatch: not detected just below p_max={p_max} (margin {below:.3e})")
    if above > GUARD:
        problems.append(f"mismatch: still detected just above p_max={p_max} (margin {above:.3e})")
    return problems
