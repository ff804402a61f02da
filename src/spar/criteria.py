"""Verdict layer: the SPA-realignment separability test, the approximation
error bounds, and two competing moment-based criteria.

Every test here is one-sided: a violated inequality certifies entanglement,
anything else is inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .config import DEFAULT
from .realign import StateLike, Verdict, as_realigned, realignment_criterion, realignment_moment
from .spa import apply_spa, require_positive_trace

__all__ = [
    "ErrorReport",
    "CriterionReport",
    "spa_r_upper_bound",
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


def spa_r_criterion(
    rho: StateLike, p: float, tol: float = DEFAULT.verdict
) -> tuple[Verdict, float, float]:
    """SPA separability test with its numbers: the verdict, ||spa(rho; p)||_1
    and the separable bound it is compared against."""
    r = as_realigned(rho)
    trace_r = require_positive_trace(r)
    norm = linalg.trace_norm(apply_spa(r, p))
    bound = spa_r_upper_bound(trace_r, p)
    return Verdict.from_score(norm, bound, tol), norm, bound


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
    spa = apply_spa(r, p)
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
    """Run every criterion that applies to the state at the given p."""
    r = as_realigned(rho)
    trace_r = require_positive_trace(r)
    realignment_verdict, score = realignment_criterion(r, tol)
    spa_verdict, norm, bound = spa_r_criterion(r, p, tol)
    return CriterionReport(
        p=p,
        trace_r=trace_r,
        realignment_score=score,
        realignment_verdict=realignment_verdict,
        trace_norm_spa_r=norm,
        upper_bound=bound,
        spa_r_verdict=spa_verdict,
        error=error_suite(r, p, tol=tol),
        q1=q1_realignment_moments(r),
        q2=q2_rmoment(r) if (r.dim_a, r.dim_b) == (3, 3) else None,
    )
