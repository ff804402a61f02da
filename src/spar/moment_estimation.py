"""Bounding the first realignment moment from a single measurable scalar.

The SPA output is a physical state, so s = Tr[spa(rho; p) P] is measurable
for P = SWAP/d, the subsystem swap scaled to unit trace (two-copy SWAP
measurements at p >= l). Combining s with the mixing threshold data gives a
quadratic inequality for m_1 = Tr[R(rho)], hence an interval, plus piecewise
closed forms in two regimes of the offset k. The derivation chains
approximations with inequalities, so the raw quadratic interval and the case
bounds are both exposed and neither is fused with the other.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .realign import StateLike, as_realigned
from .spa import apply_spa
from .states import is_integer, require_dimension

__all__ = [
    "CaseTag",
    "MomentInterval",
    "EstimationInput",
    "swap_operator",
    "m1_interval_quadratic",
    "m1_case_bounds",
    "simulate_s",
]


class CaseTag(enum.Enum):
    QUADRATIC = "quadratic"
    CASE1 = "case1"
    CASE2 = "case2"


@dataclass(frozen=True)
class MomentInterval:
    lower: float
    upper: float
    case: CaseTag

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ValueError(f"empty interval [{self.lower}, {self.upper}]")

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class EstimationInput:
    """Measured scalar s, subsystem dimension d and eigenvalue offset k.

    s must be finite, d an integer of at least 2 and k finite and
    nonnegative; ``x = 1 - d^2 s`` must be nonnegative for the case bounds.
    """

    s: float
    d: int
    k: float

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.k)):
            raise ValueError(f"s and k must be finite, got s={self.s}, k={self.k}")
        if not is_integer(self.d):
            raise ValueError(f"d must be an integer, got {self.d}")
        if self.d < 2:
            raise ValueError("d must be at least 2")
        if self.k < 0:
            raise ValueError("k must be nonnegative")

    @property
    def x(self) -> float:
        return 1.0 - self.d**2 * self.s


def m1_interval_quadratic(inp: EstimationInput) -> MomentInterval:
    """Solve m^2 + m (d^2 k - s) + k (1 - d^2 s) <= 0 for m.

    Raises :class:`DomainError` when the discriminant is negative (no real
    first moment is consistent with the inputs). At k = 0 the interval is
    exactly [0, s].
    """
    d2 = inp.d**2
    b = d2 * inp.k - inp.s
    c = inp.k * (1.0 - d2 * inp.s)
    disc = b * b - 4.0 * c
    if disc < -1e-12 * max(1.0, b * b, abs(4.0 * c)):
        raise DomainError(f"negative discriminant {disc:.3e}: no real first moment")
    root = math.sqrt(max(0.0, disc))
    return MomentInterval((-b - root) / 2.0, (-b + root) / 2.0, CaseTag.QUADRATIC)


def _f_radicand(s: float, d: int, x: float) -> float:
    return d**8 + 2 * d**6 * s + 4 * d**2 * s + d**4 * s * s - 8.0 * (1.0 + math.sqrt(x))


def m1_case_bounds(inp: EstimationInput) -> MomentInterval:
    """Closed-form interval in the large-k (case 1) or small-k (case 2)
    window; outside both windows falls back to the quadratic interval.

    Requires x = 1 - d^2 s >= 0.
    """
    x = inp.x
    if x < -1e-12:
        raise DomainError(f"x = 1 - d^2 s = {x:.3e} is negative")
    x = max(0.0, x)
    s, d = inp.s, inp.d
    d4k = d**4 * inp.k
    sqrt_x = math.sqrt(x)
    hi_edge = 2.0 - d * d * s + 2.0 * sqrt_x
    lo_edge = 2.0 - d * d * s - 2.0 * sqrt_x
    if hi_edge <= d4k <= d**4:
        rad = math.sqrt(max(0.0, _f_radicand(s, d, x)))
        lower = 0.5 * (-(d * d) + s) - rad / (2.0 * d * d)
        upper = -(x + sqrt_x) / (d * d) + rad / (2.0 * d * d)
        return MomentInterval(lower, upper, CaseTag.CASE1)
    if 0.0 <= d4k <= lo_edge:
        gap = math.sqrt(max(0.0, 1.0 + x - 2.0 * sqrt_x))
        lower = (-x + sqrt_x - gap) / (d * d)
        upper = s / 2.0 + gap / (d * d)
        return MomentInterval(lower, upper, CaseTag.CASE2)
    return m1_interval_quadratic(inp)


def swap_operator(d: int) -> np.ndarray:
    """The SWAP operator on two d-dimensional factors: SWAP |i>|j> = |j>|i>, d >= 1."""
    d = require_dimension("d", d)
    m = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            m[i * d + j, j * d + i] = 1.0
    return m


def simulate_s(rho: StateLike, p: float) -> float:
    """Numerically evaluate s = Tr[spa(rho; p) P] for P = SWAP/d.

    Tr[R SWAP] is real for a Hermitian state (conj(R) = SWAP R SWAP), so this is its real part.
    """
    r = as_realigned(rho)
    spa = apply_spa(r, p)
    return float(np.trace(spa @ (swap_operator(r.dim_a) / r.dim_a)).real)
