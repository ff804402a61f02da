"""Verdict layer: the SPA-realignment separability test, the approximation
error bounds, and two competing moment-based criteria.

Every test here is one-sided: a violated inequality certifies entanglement,
anything else is inconclusive.
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
from .spa import apply_spa

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


def spa_r_upper_bound(trace_r: float, p: float) -> float:
    """Separable upper bound on the trace norm of the SPA output:
    p + (1-p)/Tr[R], equal to (p (Tr[R] - 1) + 1)/Tr[R].

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
    with :func:`_spa_r_scores`. An empty grid scores nothing and checks nothing.
    """
    ps = list(ps)
    if not ps:
        return []
    return _spa_r_scores(as_realigned(rho), spa.require_weights(ps))


def _spa_r_scores(r: RealignedMatrix, weights: list[float]) -> list[Score]:
    """The :class:`Score` per weight, each norm a Python float from one stacked SVD.

    The scorer behind :func:`spa_r_scores` for weights already checked; like
    ``spa._mixture``, which runs the domain gate, it does not check them, so
    a sweep checks its grid once.
    """
    norms = linalg.singular_values(spa._mixture(r, weights)).sum(axis=-1).tolist()
    trace_r = r.spa_trace
    return [Score(norm, spa_r_upper_bound(trace_r, p)) for p, norm in zip(weights, norms)]


def _spa_r_probe(r: RealignedMatrix) -> Callable[[float], Score]:
    """The boundary search's probe: the :class:`Score` of :func:`spa_r_scores`
    at one weight p already checked, with everything that does not depend on
    p prepared once.

    Tr R is read through the domain gate first. Each probe is one SVD of one
    n x n buffer, refilled in place as ``spa._mixture`` builds its slice: b R,
    then a added on the diagonal. So each norm is the double of
    ``_spa_r_scores(r, [p])``, and each verdict that of :func:`spa_r_verdict`.
    (a, b) come from ``spa._map_coefficients``, and the bound from
    :func:`spa_r_upper_bound`.
    """
    trace_r = r.spa_trace
    n = r.dim_a * r.dim_b
    buffer = np.empty((n, n), dtype=np.complex128)
    diagonal = buffer.reshape(n * n)[:: n + 1]

    def probe(p: float) -> Score:
        [(a, b)] = spa._map_coefficients(r, [p])
        np.multiply(r.matrix, b, out=buffer)
        np.add(diagonal, a, out=diagonal)
        norm = float(linalg.singular_values(buffer).sum())
        return Score(norm, spa_r_upper_bound(trace_r, p))

    return probe


def _spa_r_score_at_one(r: RealignedMatrix) -> Score:
    """The :class:`Score` of :func:`spa_r_scores` at p = 1 in closed form:
    SPA(1) = I/n, whose trace norm is 1, against the bound 1. Its verdict is
    inconclusive for every state; an SVD's norm misses the 1 by a few n eps.
    Reads Tr R through the domain gate."""
    return Score(1.0, spa_r_upper_bound(r.spa_trace, 1.0))


def spa_r_verdict(rho: StateLike, p: float) -> Verdict:
    """The verdict of :func:`spa_r_scores` at the single p."""
    return spa_r_scores(rho, [p])[0].verdict


@dataclass(frozen=True)
class ErrorReport:
    """Trace-norm error of the SPA against the raw realignment.

    ``score`` is the error ||spa - R||_1 against its separable bound
    (1-p)(1-Tr[R])/Tr[R]; ``bound_general`` is p + ((1-p-Tr[R])/Tr[R]) ||R||_1.
    Both bounds are derived assuming the mixing coefficient (1-p)/Tr[R] - 1
    is nonnegative, i.e. p <= 1 - Tr[R]; outside that window they can drop
    below the actual error even for separable states, so the score's verdict
    is only meaningful for p within the window (``bound_valid``, with
    ``DEFAULT.verdict`` as its slack).
    """

    score: Score
    bound_general: float
    bound_valid: bool


def error_suite(rho: StateLike, p: float) -> ErrorReport:
    """Approximation error ||spa(rho; p) - R(rho)||_1 and its separable bounds;
    checks as :func:`apply_spa`: p, then the domain gate."""
    r = as_realigned(rho)
    error_norm = linalg.trace_norm(apply_spa(r, p) - r.matrix)
    return _error_report(r, error_norm, float(p))  # p passed apply_spa's check


def _error_report(r: RealignedMatrix, error_norm: float, p: float) -> ErrorReport:
    """:func:`error_suite` from the error norm ||spa - R||_1 already computed."""
    trace_r = r.spa_trace
    return ErrorReport(
        score=Score(error_norm, (1.0 - p) * (1.0 - trace_r) / trace_r),
        bound_general=p + (1.0 - p - trace_r) / trace_r * r.trace_norm,
        bound_valid=p <= 1.0 - trace_r + DEFAULT.verdict,
    )


def q1_realignment_moments(rho: StateLike) -> float:
    """Singular-moment score r_2^2 - r_3; a positive value certifies
    entanglement (separable states obey r_2^2 <= r_1 r_3 <= r_3)."""
    r = as_realigned(rho)
    return realignment_moment(r, 2) ** 2 - realignment_moment(r, 3)


def q2_rmoment(rho: StateLike) -> float:
    """3x3-only score 56 D_8^(1/8) + Tr[R(rho)] - 1 with D_8 the product of
    the squares of the eight largest singular values of rho; positive values
    certify entanglement.

    D_8 is built from the state's own singular values (for a density matrix,
    its eigenvalues); only the additive term uses the realigned trace. The
    constant 56 and the exponent 1/8 are specific to two qutrits, so other
    dimensions are rejected.
    """
    r = as_realigned(rho)
    if (r.dim_a, r.dim_b) != (3, 3):
        raise ValueError("q2_rmoment is defined for 3x3 systems only")
    return _q2_score(r, linalg.singular_values(r.state.matrix))


def _q2_score(r: RealignedMatrix, state_sigma: np.ndarray) -> float:
    """:func:`q2_rmoment` from the singular values of the state."""
    d8 = float(np.prod(state_sigma[:8] ** 2))
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

    The SPA matrix is built once. One stacked SVD gives the singular values
    of R, of the SPA matrix, of SPA - R and, when q2 applies, of the state
    (``RealignedMatrix.singular_values_with``); the analysis caches R's, which
    the realignment score and q1 read. Every value is the double that a
    separate SVD of its matrix gives. Checks as :func:`apply_spa`: p, then the gate.
    """
    r = as_realigned(rho)
    mixture = apply_spa(r, p)
    p = float(p)  # checked by apply_spa; the bounds take its double
    with_q2 = (r.dim_a, r.dim_b) == (3, 3)
    sigma = r.singular_values_with(mixture, mixture - r.matrix,
                                   *([r.state.matrix] if with_q2 else []))
    spa_norm, error_norm = np.sum(sigma[:2], axis=-1).tolist()
    return CriterionReport(
        p=p,
        trace_r=r.spa_trace,
        realignment=realignment_criterion(r),
        spa_r=Score(spa_norm, spa_r_upper_bound(r.spa_trace, p)),
        error=_error_report(r, error_norm, p),
        q1=q1_realignment_moments(r),
        q2=_q2_score(r, sigma[2]) if with_q2 else None,
    )
