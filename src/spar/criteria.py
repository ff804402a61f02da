"""Verdict layer: the SPA-realignment separability test, the approximation
error bounds, and the paper's two moment scores q1 and q2.

The realignment and SPA-R tests are one-sided: a violated inequality
certifies entanglement, anything else is inconclusive. The other three
detect nothing that realignment misses. q1 > 0 forces ||R||_1 > 1, since
r_2^2 <= r_1 r_3 by Cauchy-Schwarz; so does an error-test detection inside
its window p <= 1 - Tr[R]. q2 is the paper's score, reproduced, and is
positive on separable states (ROADMAP item 19), so it certifies nothing.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import linalg, spa
from .config import DEFAULT
from .realign import (
    RealignedMatrix,
    Score,
    StateLike,
    Verdict,
    as_realigned,
    realignment_criterion,
    realignment_moment,
)

__all__ = [
    "ErrorReport",
    "CriterionReport",
    "spa_r_upper_bound",
    "spa_r_scores",
    "spa_r_verdict",
    "error_suite",
    "q1_realignment_moments",
    "q2_rmoment",
    "criterion_report",
]


def spa_r_upper_bound(trace_r: float, p: float | np.ndarray) -> float | np.ndarray:
    """Separable upper bound on the trace norm of the SPA output:
    p + (1-p)/Tr[R], equal to (p (Tr[R] - 1) + 1)/Tr[R], of a float p or
    elementwise of an array of them.

    Evaluates to exactly 1 at p = 1 or Tr[R] = 1.
    """
    if trace_r <= 0:
        raise ValueError(f"upper bound requires a positive realigned trace, got {trace_r}")
    return p + (1.0 - p) / trace_r


def spa_r_scores(rho: StateLike, ps: Sequence[float]) -> list[Score]:
    """SPA separability test over a p-grid: for each p the :class:`Score` of
    ||spa(rho; p)||_1 against the separable bound :func:`spa_r_upper_bound`.

    The whole grid is one stack of SPA matrices and one stacked SVD; each
    norm is the same double as for that p alone. Checks as :func:`apply_spa`:
    the grid with ``spa.require_weights``, then the domain gate, then scores
    with :func:`_spa_r_pass`. An empty grid scores nothing and checks nothing.
    """
    ps = list(ps)
    if not ps:
        return []
    norms, bounds = _spa_r_pass(as_realigned(rho), spa.require_weights(ps))
    return list(map(Score, norms.tolist(), bounds.tolist()))


def _spa_r_pass(
    r: RealignedMatrix, weights: Sequence[float] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One pass over a p-grid already checked: the SPA-R norm and separable
    bound per weight, as arrays.

    One stack from ``spa._mixture`` holds the SPA matrix of every weight,
    then R; one SVD call decomposes it, and R's row is cached on the analysis
    (``RealignedMatrix.singular_values_with``), where q1 reads it. Each norm
    is the double that a separate SVD of its matrix gives, and each bound
    that of :func:`spa_r_upper_bound` at its p. Runs the domain gate; like
    ``spa._mixture``, checks no weight, so a sweep checks its grid once.
    """
    weights = np.asarray(weights, dtype=float)
    sigma = r.singular_values_with(spa._mixture(r, weights))
    return sigma.sum(axis=-1), spa_r_upper_bound(r.spa_trace, weights)


def _spa_r_probe(r: RealignedMatrix) -> Callable[[float], float]:
    """The boundary search's probe: the norm ||SPA(p)||_1 at one weight p
    already checked, with everything that does not depend on p prepared once,
    Tr R through the domain gate included.

    Each probe is one SVD of one n x n buffer, refilled in place as
    ``spa._mixture`` fills its slices: b R, then a added on the diagonal, with
    (a, b) from ``spa._map_coefficients`` as Python floats. So each norm is
    the double of ``spa_r_scores(r, [p])``.
    """
    r.spa_trace  # the domain gate, before any probe
    n = r.dim_a * r.dim_b
    buffer = np.empty((n, n), dtype=np.complex128)
    diagonal = buffer.reshape(n * n)[:: n + 1]

    def probe(p: float) -> float:
        a, b = spa._map_coefficients(r, p)
        np.multiply(r.matrix, b, out=buffer)
        np.add(diagonal, a, out=diagonal)
        return float(linalg.singular_values(buffer).sum())

    return probe


def spa_r_verdict(rho: StateLike, p: float) -> Verdict:
    """The verdict of :func:`spa_r_scores` at the single p."""
    return spa_r_scores(rho, [p])[0].verdict


@dataclass(frozen=True)
class ErrorReport:
    """Trace-norm error of the SPA against the raw realignment.

    ``score`` is the error ||spa - R||_1 against its separable bound
    (1-p)(1-Tr[R])/Tr[R]; ``bound_general`` is p + ((1-p-Tr[R])/Tr[R]) ||R||_1.
    Both bounds are derived assuming the mixing coefficient
    c = (1-p)/Tr[R] - 1 is nonnegative, i.e. p <= 1 - Tr[R]; outside that
    window they can drop below the actual error even for separable states, so
    the score's verdict is only meaningful for p within the window
    (``bound_valid``, with ``DEFAULT.verdict`` as its slack), yet
    ``bound_valid`` does not gate it: outside the window it can read
    ENTANGLED for a separable state. Inside, spa - R = (p/n) I + c R has
    norm at most p + c ||R||_1, so a detection forces ||R||_1 > 1.
    """

    score: Score
    bound_general: float
    bound_valid: bool


def error_suite(rho: StateLike, p: float) -> ErrorReport:
    """Approximation error ||spa(rho; p) - R(rho)||_1 and its separable bounds:
    the ``error`` of :func:`criterion_report`, with its checks."""
    return criterion_report(rho, p).error


def q1_realignment_moments(rho: StateLike) -> float:
    """Singular-moment score r_2^2 - r_3 of R's singular values. Since
    r_2^2 <= r_1 r_3 for every R (Cauchy-Schwarz), q1 > 0 forces
    ||R||_1 = r_1 > 1: q1 detects nothing that :func:`realignment_criterion`
    misses."""
    r = as_realigned(rho)
    return realignment_moment(r, 2) ** 2 - realignment_moment(r, 3)


def q2_rmoment(rho: StateLike) -> float:
    """3x3-only score 56 D_8^(1/8) + Tr[R(rho)] - 1 with D_8 the product of
    the squares of the eight largest singular values of rho.

    This is the paper's score, reproduced; it is not a separability test,
    since it is positive on separable states: 0.0247 on I/9 and 0.550 on a
    mixture of SIC products (ROADMAP item 19).

    D_8 is built from one SVD of the state (for a density matrix, its
    eigenvalues); only the additive term uses the realigned trace. The
    constant 56 and the exponent 1/8 are specific to two qutrits, so other
    dimensions are rejected.
    """
    r = as_realigned(rho)
    if (r.dim_a, r.dim_b) != (3, 3):
        raise ValueError("q2_rmoment is defined for 3x3 systems only")
    d8 = float(np.prod(linalg.singular_values(r.state.matrix)[:8] ** 2))
    return 56.0 * d8 ** (1.0 / 8.0) + r.moment(1) - 1.0


@dataclass(frozen=True)
class CriterionReport:
    """All per-state scalars for one (state, p) analysis: the realignment
    score ||R||_1 against 1 and the SPA-R score ||spa(rho; p)||_1 against
    :func:`spa_r_upper_bound`, each verdict read from its :class:`Score`."""

    p: float
    trace_r: float
    realignment: Score
    spa_r: Score
    error: ErrorReport
    q1: float
    q2: float | None


def criterion_report(rho: StateLike, p: float) -> CriterionReport:
    """Run every criterion that applies to the state at the given p.

    The SPA matrix is built twice, in one stack from ``spa._mixture``, and
    SPA - R is written over its second copy. One stacked SVD gives the
    singular values of the SPA matrix, of SPA - R and of R
    (``RealignedMatrix.singular_values_with``); the analysis caches R's, which
    the realignment score and q1 read. Every value is the double that a
    separate SVD of its matrix gives. q2, for two qutrits, takes its own SVD
    of the state in :func:`q2_rmoment`. Checks as :func:`apply_spa`: p, then
    the gate.
    """
    r = as_realigned(rho)
    [p] = spa.require_weights([p])
    stack = spa._mixture(r, [p, p])
    np.subtract(stack[0], r.matrix, out=stack[1])
    sigma = r.singular_values_with(stack)
    spa_norm, error_norm = sigma.sum(axis=-1).tolist()
    trace_r = r.spa_trace
    return CriterionReport(
        p=p,
        trace_r=trace_r,
        realignment=realignment_criterion(r),
        spa_r=Score(spa_norm, spa_r_upper_bound(trace_r, p)),
        error=ErrorReport(
            score=Score(error_norm, (1.0 - p) * (1.0 - trace_r) / trace_r),
            bound_general=p + (1.0 - p - trace_r) / trace_r * r.trace_norm,
            bound_valid=p <= 1.0 - trace_r + DEFAULT.verdict,
        ),
        q1=q1_realignment_moments(r),
        q2=q2_rmoment(r) if (r.dim_a, r.dim_b) == (3, 3) else None,
    )
