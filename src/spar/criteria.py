"""Verdict layer: the SPA-realignment separability test, the approximation
error bounds, and two competing moment-based criteria.

Every test here is one-sided: a violated inequality certifies entanglement,
anything else is inconclusive.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import linalg
from .config import DEFAULT
from .realign import (
    RealignedMatrix,
    StateLike,
    Verdict,
    as_realigned,
    realignment_criterion,
    realignment_moment,
)
from .spa import apply_spa, require_positive_trace

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


def spa_r_scores(
    rho: StateLike, ps: Sequence[float], tol: float = DEFAULT.verdict
) -> list[tuple[Verdict, float, float]]:
    """SPA separability test over a p-grid: for each p the verdict,
    ||spa(rho; p)||_1 and the separable bound it is compared against.

    The whole grid is one stack of SPA matrices and one stacked SVD; each
    norm is the same double as for that p alone. A p outside [0, 1] raises
    before anything is scored. An empty grid scores nothing and checks
    nothing.
    """
    ps = list(ps)
    if not ps:
        return []
    r = as_realigned(rho)
    trace_r = require_positive_trace(r)
    return _score_spa_r(apply_spa(r, ps), trace_r, ps, tol)


def _score_spa_r(
    spa: np.ndarray, trace_r: float, ps: list[float], tol: float
) -> list[tuple[Verdict, float, float]]:
    """Verdict, norm and bound per p from the stack of SPA matrices."""
    scores = []
    for p, norm in zip(ps, linalg.trace_norm(spa).tolist()):
        bound = spa_r_upper_bound(trace_r, p)
        scores.append((Verdict.from_score(norm, bound, tol), norm, bound))
    return scores


def spa_r_criterion(
    rho: StateLike, p: float, tol: float = DEFAULT.verdict
) -> tuple[Verdict, float, float]:
    """:func:`spa_r_scores` at a single p."""
    return spa_r_scores(rho, [p], tol)[0]


def spa_r_verdict(rho: StateLike, p: float, tol: float = DEFAULT.verdict) -> Verdict:
    """Entangled iff ||spa(rho; p)||_1 exceeds the separable bound by tol."""
    return spa_r_criterion(rho, p, tol)[0]


@dataclass(frozen=True)
class ErrorReport:
    """Trace-norm error of the SPA against the raw realignment.

    ``bound_general`` is p + ((1-p-Tr[R])/Tr[R]) ||R||_1 and
    ``bound_separable`` is (1-p)(1-Tr[R])/Tr[R]. Both are derived assuming
    the mixing coefficient (1-p)/Tr[R] - 1 is nonnegative, i.e.
    p <= 1 - Tr[R]; outside that window the bounds can drop below the actual
    error even for separable states, so ``verdict`` is only meaningful for
    p within the window (``bound_valid``).
    """

    error_norm: float
    bound_general: float
    bound_separable: float
    verdict: Verdict
    bound_valid: bool


def error_suite(rho: StateLike, p: float, tol: float = DEFAULT.verdict) -> ErrorReport:
    """Approximation error ||spa(rho; p) - R(rho)||_1 and its separable bounds."""
    r = as_realigned(rho)
    trace_r = require_positive_trace(r)
    return _error_report(r, trace_r, apply_spa(r, p), p, tol)


def _error_report(
    r: RealignedMatrix, trace_r: float, spa: np.ndarray, p: float, tol: float
) -> ErrorReport:
    """:func:`error_suite` from an SPA matrix already built."""
    error_norm = linalg.trace_norm(spa - r.matrix)
    bound_general = p + (1.0 - p - trace_r) / trace_r * r.trace_norm
    bound_separable = (1.0 - p) * (1.0 - trace_r) / trace_r
    return ErrorReport(
        error_norm=error_norm,
        bound_general=bound_general,
        bound_separable=bound_separable,
        verdict=Verdict.from_score(error_norm, bound_separable, tol),
        bound_valid=p <= 1.0 - trace_r + tol,
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
    sigma = linalg.singular_values(r.state.matrix)[:8]
    d8 = float(np.prod(sigma**2))
    return 56.0 * d8 ** (1.0 / 8.0) + r.trace - 1.0


@dataclass(frozen=True)
class CriterionReport:
    """All per-state scalars for one (state, p) analysis."""

    p: float
    trace_r: float
    realignment_score: float
    realignment_verdict: Verdict
    trace_norm_spa_r: float
    upper_bound: float
    spa_r_verdict: Verdict
    error: ErrorReport
    q1: float
    q2: float | None


def criterion_report(rho: StateLike, p: float, tol: float = DEFAULT.verdict) -> CriterionReport:
    """Run every criterion that applies to the state at the given p.

    The SPA matrix is built once and shared by the SPA-R score and the
    approximation error.
    """
    r = as_realigned(rho)
    trace_r = require_positive_trace(r)
    realignment_verdict, score = realignment_criterion(r, tol)
    spa = apply_spa(r, [p])
    [(spa_verdict, norm, bound)] = _score_spa_r(spa, trace_r, [p], tol)
    return CriterionReport(
        p=p,
        trace_r=trace_r,
        realignment_score=score,
        realignment_verdict=realignment_verdict,
        trace_norm_spa_r=norm,
        upper_bound=bound,
        spa_r_verdict=spa_verdict,
        error=_error_report(r, trace_r, spa[0], p, tol),
        q1=q1_realignment_moments(r),
        q2=q2_rmoment(r) if (r.dim_a, r.dim_b) == (3, 3) else None,
    )
