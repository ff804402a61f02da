"""Shared helpers for the test suite."""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import signal

import numpy as np

import spar.spa
from spar import linalg, random_schmidt_symmetric, validate_density
from spar.realign import RealignedMatrix
from spar.sweeps import SWEEP_COLUMNS, family_state, sweep_rows


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError inside the block once it has run ``seconds`` of
    wall time, so a search that never ends fails instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def count_spa_checks(monkeypatch) -> tuple[list, list]:
    """Record, from here on, each run of the SPA's domain gate (the body of
    ``RealignedMatrix.spa_trace``) and each weight check (``spa.require_weights``)."""
    gates, weights = [], []
    gate = RealignedMatrix.__dict__["spa_trace"].func

    def counted_gate(r):
        gates.append(r)
        return gate(r)

    counted = functools.cached_property(counted_gate)
    counted.__set_name__(RealignedMatrix, "spa_trace")
    monkeypatch.setattr(RealignedMatrix, "spa_trace", counted)
    check = spar.spa.require_weights

    def require_weights(p):
        weights.append(p)
        return check(p)

    monkeypatch.setattr(spar.spa, "require_weights", require_weights)
    return gates, weights


def trace_norm(m) -> float:
    """Trace norm of one matrix, square or not: the sum of its singular values.

    The tests' oracle for the package's norms, which are stacked singular
    values summed. Refuses a matrix as ``linalg.as_matrix`` does, squareness
    aside, so a stack fails the "shape" check.
    """
    return float(np.sum(linalg.singular_values(linalg._finite_complex(m, stacked=False))))


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_complex(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = random_complex(rng, n)
    return (g + g.conj().T) / 2


def random_real_spectrum(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-normal matrix with known real eigenvalues: V diag(lam) V^-1 with a
    well-conditioned random V.

    V is redrawn until cond(V) < 50; a rare ill-conditioned draw (cond ~ 7e3
    at seed 235, n = 9) inflates ||M|| enough that Tr[M^k] by matrix products
    loses ~5e-8 and the exact-moment oracles no longer apply.
    """
    lam = rng.uniform(-1.0, 1.0, size=n)
    v = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    while np.linalg.cond(v) >= 50:
        v = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    return v @ np.diag(lam) @ np.linalg.inv(v), np.sort(lam)


def realign_blockwise(m, dim_a: int, dim_b: int) -> np.ndarray:
    """Block form of realignment: rows are vec(X_ij)^t over the dB x dB blocks,
    blocks enumerated down each block column.

    Independent cross-check of ``spar.realign_matrix``. The two forms
    coincide entrywise on real inputs and are complex conjugates of each
    other on Hermitian inputs; singular values, trace and (square case)
    eigenvalue moments always agree.
    """
    a = linalg.as_matrix(m)
    n = dim_a * dim_b
    if a.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for dims {dim_a}x{dim_b}, got {a.shape}")
    rows = np.empty((dim_a * dim_a, dim_b * dim_b), dtype=np.complex128)
    for j in range(dim_a):  # block column
        for i in range(dim_a):  # block row
            block = a[i * dim_b : (i + 1) * dim_b, j * dim_b : (j + 1) * dim_b]
            rows[j * dim_a + i] = block.flatten(order="F")  # column stacking
    return rows


def csv_writer_text(rows, columns) -> str:
    """The bytes the standard library's ``csv.writer`` gives for rows of dicts,
    with a bare LF after each line: the independent reference for the
    package's CSV writers."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([row[c] for c in columns] for row in rows)
    return out.getvalue()


def family_pairs(family: str, params) -> list:
    """The ``(param, state)`` pairs of a family sweep."""
    return [(param, family_state(family, param)) for param in params]


def sweep_reference(family: str, params, ps) -> str:
    """``csv.writer``'s bytes for the :func:`spar.sweeps.sweep_rows` of a family sweep."""
    rows = sweep_rows(family_pairs(family, params), ps)
    return csv_writer_text(rows, SWEEP_COLUMNS)


def elementary_symmetric(eigenvalues) -> np.ndarray:
    """e_0..e_n of the given eigenvalues by direct polynomial expansion.

    Independent oracle for ``spar.newton_coefficients`` (the coefficients of
    prod (x - lambda_i) are exactly the elementary symmetric polynomials).
    """
    eigs = np.asarray(eigenvalues)
    e = np.zeros(len(eigs) + 1, dtype=eigs.dtype if eigs.dtype.kind == "c" else float)
    e[0] = 1.0
    for i, lam in enumerate(eigs):
        for j in range(min(i + 1, len(eigs)), 0, -1):
            e[j] = e[j] + lam * e[j - 1]
    return e


def newton_reference(moments) -> tuple[np.ndarray, np.ndarray]:
    """Values and scales of ``spar.newton_coefficients`` by the scalar Newton
    recursion, one term at a time: a_k = (1/k) sum_i (-1)^(i-1) a_{k-i} m_i,
    with each sum (and the scale's sum of |terms|) exactly rounded."""
    m = np.asarray(moments, dtype=float)
    n = len(m)
    a = np.empty(n + 1)
    scale = np.empty(n + 1)
    a[0] = 1.0
    scale[0] = 1.0
    for k in range(1, n + 1):
        terms = [(-1) ** (i - 1) * a[k - i] * m[i - 1] for i in range(1, k + 1)]
        a[k] = math.fsum(terms) / k
        scale[k] = math.fsum(abs(t) for t in terms) / k
    return a, scale


def near_psd_state(d: int, eps: float, seed: int):
    """A d x d state whose realigned matrix has a negative eigenvalue of order
    -eps: rho ~ rho_SS/2 + I/(2 d^2) - eps H (x) conj(H), with rho_SS
    Schmidt-symmetric and H Hermitian of unit Frobenius norm."""
    ss = random_schmidt_symmetric(d, d, seed=seed).matrix
    h = random_hermitian(np.random.default_rng(1000 + seed), d)
    h /= np.linalg.norm(h)
    m = 0.5 * ss + 0.5 * np.eye(d * d) / (d * d) - eps * np.kron(h, h.conj())
    return validate_density(m / np.trace(m).real, (d, d))


def hex_entries(values) -> str:
    """``values`` as the hex of little-endian complex128 bytes, the layout of
    a written state file's ``matrix``."""
    return np.asarray(values, dtype=complex).astype("<c16").tobytes().hex()


# state files whose hex matrix read_state_file refuses: (file text, check,
# the start of the message)
HEX_REFUSALS = {
    "not_hex": ('{"dims": [1, 1], "matrix": "0g"}', "finite", "matrix is not a hex string: "),
    "odd_digits": ('{"dims": [1, 1], "matrix": "' + hex_entries([1.0])[:-1] + '"}',
                   "finite", "matrix is not a hex string: "),
    "partial_entry": ('{"dims": [1, 1], "matrix": "' + hex_entries([1.0])[:24] + '"}', "shape",
                      "matrix hex holds 12 bytes, not a whole number of 16-byte entries"),
    "not_square": ('{"dims": [1, 3], "matrix": "' + hex_entries([1.0, 0.0, 0.0]) + '"}',
                   "shape", "matrix length 3 is not a perfect square"),
    "nan": ('{"dims": [1, 1], "matrix": "' + hex_entries([complex(1.0, math.nan)]) + '"}',
            "finite", "matrix contains non-finite entries"),
    "inf": ('{"dims": [1, 1], "matrix": "' + hex_entries([math.inf]) + '"}',
            "finite", "matrix contains non-finite entries"),
    "wrong_dims": ('{"dims": [2, 3], "matrix": "' + hex_entries(np.eye(4).ravel() / 4) + '"}',
                   "dims", "matrix size 4 != dimA*dimB = 6"),
}
