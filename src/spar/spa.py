"""Structural physical approximation (SPA) of the realignment map.

The SPA mixes the (unphysical) realignment map with the depolarizing map:

    spa(rho; p) = (p/d^2) I + ((1-p)/Tr[R(rho)]) R(rho),    0 <= p <= 1.

For states whose realigned matrix has a real spectrum and positive trace, the
mixing weight needed to make this operator positive is certified from the
moments of R(rho): a variance-type lower bound on the minimum eigenvalue,
from the first two moments alone, yields the offset k and the threshold l,
and a Descartes sign test on the characteristic-polynomial coefficients
(built from all d^2 moments via the Newton recursion) decides whether R(rho)
is already PSD, in which case l = 0. :class:`SpaAnalysis` keeps the shared
analysis it was read from, whose ``dim_a`` and ``spa_trace`` are d and Tr R.

The real-spectrum precondition reads eig(R), one general eigensolve for every
R, Hermitian or not, cached on the shared analysis. Those eigenvalues also
give the CP certificate's gamma2, since the SPA output's spectrum is an affine
image of eig(R).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT
from .exceptions import DomainError
from .realign import RealignedMatrix, StateLike, as_realigned
from .states import RHO_T_MAX

__all__ = [
    "CharPolyCoeffs",
    "SpaAnalysis",
    "CpCertificate",
    "ReferenceThresholds",
    "lambda_min_lower_bound",
    "newton_coefficients",
    "descartes_psd_test",
    "threshold_value",
    "eigenvalue_offset",
    "spa_threshold",
    "apply_spa",
    "certify_completely_positive",
    "rho_t_reference_thresholds",
]


def lambda_min_lower_bound(m1: float, m2: float, n: int) -> float:
    """Variance lower bound on the minimum of n real numbers with given
    power sums: m1/n - sqrt((n-1) (m2/n - (m1/n)^2)).

    The radicand is nonnegative when the underlying spectrum is real; a
    radicand below -1e-12 signals a complex spectrum and raises
    :class:`DomainError`.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    mean = m1 / n
    variance = m2 / n - mean * mean
    if variance < -1e-12:
        raise DomainError(
            f"negative moment variance {variance:.3e}: spectrum is not real"
        )
    return mean - math.sqrt((n - 1) * max(0.0, variance))


@dataclass(frozen=True)
class CharPolyCoeffs:
    """Coefficients a_0..a_n of prod_i (x - lambda_i) written as
    sum_k (-1)^k a_k x^(n-k), with a_0 = 1.

    ``scales`` carries the accumulated magnitude of each coefficient's
    recursion terms; it is the natural floating-point noise scale for
    deciding whether a coefficient is zero.
    """

    values: np.ndarray
    scales: np.ndarray = field(repr=False)


def newton_coefficients(moments) -> CharPolyCoeffs:
    """Characteristic-polynomial coefficients from power sums m_1..m_n.

    Newton's identities: a_k = (1/k) sum_{i=1..k} (-1)^(i-1) a_{k-i} m_i,
    so a_1 = m_1, a_2 = (m_1^2 - m_2)/2, and so on. Each step forms its k
    signed products as Python floats and sums them exactly rounded with
    :func:`math.fsum`, so a_k does not depend on the order of the terms.
    """
    # (-1)^(i-1) m_i: flipping a sign is exact, so every product below is
    # the double (-1)^(i-1) a_{k-i} m_i
    signed = [-m if i % 2 else m for i, m in enumerate(map(float, moments))]
    a, scale = [1.0], [1.0]
    for k in range(1, len(signed) + 1):
        terms = [x * m for x, m in zip(reversed(a), signed)]
        a.append(math.fsum(terms) / k)
        scale.append(math.fsum(map(abs, terms)) / k)
    return CharPolyCoeffs(np.array(a), np.array(scale))


def descartes_psd_test(coeffs: CharPolyCoeffs) -> bool:
    """Sign test: all eigenvalues nonnegative iff every a_k is nonnegative.

    A coefficient within ``DEFAULT.coefficient`` times its recursion scale
    of zero counts as zero, so structurally vanishing coefficients (products
    of small eigenvalues) cannot flip the verdict through rounding noise.
    """
    slack = DEFAULT.coefficient
    return all(a >= -(slack * scale)
               for a, scale in zip(coeffs.values[1:].tolist(), coeffs.scales[1:].tolist()))


def threshold_value(k: float, trace_r: float, d: int) -> float:
    """Mixing threshold d^2 k / (Tr[R] + d^2 k) for a non-PSD realignment."""
    return d * d * k / (trace_r + d * d * k)


@dataclass(frozen=True)
class SpaAnalysis:
    """SPA threshold data for one state.

    ``lower_bound`` is the moment bound on the minimum eigenvalue of R(rho),
    ``k = max(0, -lower_bound)``, ``l`` the smallest p certified to make the
    SPA output positive, ``psd`` the Descartes verdict on R(rho) and
    ``coefficients`` its characteristic-polynomial coefficients a_1..a_{d^2}.
    ``realigned`` is the analysis the data was read from; d is its ``dim_a``
    and Tr R its ``spa_trace``, which are not copied here.
    """

    lower_bound: float
    k: float
    l: float
    psd: bool
    coefficients: np.ndarray
    realigned: RealignedMatrix = field(repr=False)


@dataclass(frozen=True)
class CpCertificate:
    """Complete-positivity witness pair for the SPA at a given p.

    When ``certified``, gamma1 = 0 and gamma2 = lambda_max[spa] /
    lambda_max[rho] satisfy lambda_min[spa] >= gamma1 lambda_min[rho] and
    lambda_max[spa] <= gamma2 lambda_max[rho].
    """

    certified: bool
    gamma1: float | None
    gamma2: float | None


def eigenvalue_offset(rho: StateLike) -> tuple[float, float]:
    """The moment lower bound on the minimum eigenvalue of R(rho) and the
    offset k = max(0, -bound), from m_1 and m_2 alone.

    Checks the domain gate ``RealignedMatrix.spa_trace`` (equal dimensions,
    then a positive realigned trace), then a real realigned spectrum: the
    largest |Im lambda| of ``r.eigenvalues``, one general eigensolve of R, must
    lie within ``DEFAULT.spectrum_imag``, else :class:`DomainError`. Unlike
    :func:`spa_threshold`, this builds neither the higher moments nor the
    characteristic-polynomial coefficients.
    """
    r = as_realigned(rho)
    trace_r = r.spa_trace
    worst = max(map(abs, r.eigenvalues.imag.tolist()))
    if worst > DEFAULT.spectrum_imag:
        raise DomainError(f"realigned spectrum has imaginary part {worst:.3e}")
    # the cached Python floats, not numpy scalars: l and k are written out
    # once per sweep row, and a numpy scalar formats more slowly
    lower = lambda_min_lower_bound(trace_r, r.moment(2), r.dim_a * r.dim_a)
    return lower, max(0.0, -lower)


def spa_threshold(rho: StateLike) -> SpaAnalysis:
    """Moment-certified positivity threshold for the SPA of one state.

    Requires equal subsystem dimensions with positive realigned trace and
    real realigned spectrum (see :func:`eigenvalue_offset`, which gives k).
    The PSD branch (l = 0) is decided by the moment-based sign test, not by
    the eigensolver; the one general eigensolve of R is the real-spectrum
    precondition's, whose eigenvalues the CP certificate reads too. Where the
    sign test finds a negative eigenvalue but k = 0, the moment bound has
    already certified lambda_min(R) >= 0, and the threshold formula gives
    l = 0 as well.
    """
    r = as_realigned(rho)
    lower, k = eigenvalue_offset(r)
    d = r.dim_a
    coeffs = newton_coefficients(r.moments(d * d))
    psd = descartes_psd_test(coeffs)
    l = 0.0 if psd else threshold_value(k, r.spa_trace, d)
    return SpaAnalysis(
        lower_bound=lower, k=k, l=l, psd=psd,
        coefficients=coeffs.values[1:].copy(), realigned=r,
    )


def require_weights(ps: Sequence[float]) -> list[float]:
    """The mixing weights ``ps`` of the SPA as Python floats, one double each.

    Raises ``ValueError`` at the first entry that is not a real number or is a
    bool (``p must be a number``, naming its ``repr``, so a string shows its
    quotes) or lies outside [0, 1], NaN included (``p must lie in [0, 1]``,
    naming its ``str``)."""
    weights = []
    for p in ps:
        # a float passes the exact-type check, before numbers.Real's slow ABC one
        if isinstance(p, bool) or not isinstance(p, (float, numbers.Real)):
            raise ValueError(f"p must be a number, got {p!r}")
        w = float(p)
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        weights.append(w)
    return weights


def apply_spa(rho: StateLike, p: float) -> np.ndarray:
    """Evaluate (p/d^2) I + ((1-p)/Tr[R]) R(rho) at one weight p.

    Two steps: p checked as the one-point grid ``[p]`` with
    :func:`require_weights`, so a sequence p is refused, then the matrix built
    by :func:`_mixture` from :func:`_map_coefficients`, the package's one copy
    of the SPA arithmetic, which reads Tr R through the domain gate. A
    sweep's p-grid, checked once, is one :func:`_mixture` call, whose slice i
    equals ``apply_spa(rho, ps[i])`` exactly. The output always has unit trace.
    Unlike :func:`spa_threshold` this does not gate on a real realigned
    spectrum, since the mixture and its trace norm are well defined without it.
    """
    weights = require_weights([p])
    return _mixture(as_realigned(rho), weights)[0]


def _map_coefficients(r: RealignedMatrix, w: float | np.ndarray) -> tuple:
    """The SPA map's coefficients (w/n, (1-w)/Tr[R]) for a weight w already
    checked by :func:`require_weights`; nothing here checks it. ``w`` is a
    Python float (a probe, the CP certificate), which gives two floats, or an
    array of weights (a grid), which gives two arrays of the same doubles.
    Tr R is ``r.spa_trace``, so the domain gate runs here once per analysis."""
    trace_r = r.spa_trace
    n = r.dim_a * r.dim_b
    return w / n, (1.0 - w) / trace_r


def _mixture(r: RealignedMatrix, weights: Sequence[float] | np.ndarray, *extra) -> np.ndarray:
    """A new stack: the SPA matrix (w/n) I + ((1-w)/Tr[R]) R of each weight w,
    with the coefficients of :func:`_map_coefficients`, then each matrix of
    ``extra`` in order, then R. R's slot is always last, where
    ``RealignedMatrix.singular_values_with`` reads it.

    Each SPA slice is b R with a added on its diagonal, written in place, so
    every entry is the double b x or a + b x.
    """
    a, b = _map_coefficients(r, np.asarray(weights, dtype=float))
    n, m = r.dim_a * r.dim_b, len(a)
    stack = np.empty((m + len(extra) + 1, n, n), dtype=np.complex128)
    grid = stack[:m]
    np.multiply(b[:, None, None], r.matrix, out=grid)
    grid.reshape(m, n * n)[:, :: n + 1] += a[:, None]
    for i, matrix in enumerate(extra, m):
        stack[i] = matrix
    stack[-1] = r.matrix
    return stack


def certify_completely_positive(threshold: SpaAnalysis, p: float) -> CpCertificate:
    """Witness pair for complete positivity of the SPA at p.

    Certified iff p is at or above the moment threshold ``threshold.l`` of
    :func:`spa_threshold`, whose domain gate and real-spectrum check have
    already run. gamma1 is fixed to 0 (the smallest valid choice; the minimum
    eigenvalue of a state can itself be 0, making ratios undefined). gamma2 is
    the ratio of maximum eigenvalues. The SPA output's is
    p/n + ((1-p)/Tr[R]) max Re lambda(R), with :func:`_map_coefficients`, an
    affine image of the shared analysis's eig(R), so no SPA matrix is built;
    the state's comes from its validated spectrum. An uncertified result is a
    valid outcome, not an error. Checks only ``[p]``, as :func:`apply_spa` does.
    """
    [p] = require_weights([p])
    if p < threshold.l:
        return CpCertificate(False, None, None)
    r = threshold.realigned
    a, b = _map_coefficients(r, p)
    lam_spa = a + b * max(r.eigenvalues.real.tolist())
    return CpCertificate(True, 0.0, lam_spa / float(r.state.spectrum[-1]))


@dataclass(frozen=True)
class ReferenceThresholds:
    """Closed-form p boundaries for the two-qubit rho_t family.

    p1 is the positivity threshold of the unnormalized mixture
    (p/d^2) I + (1-p) R for t < 0, p2 the upper edge of the detection window
    on the negative side, p3 the upper edge for 0.116117 < t <= 0.125.
    """

    p1: float
    p2: float
    p3: float


def rho_t_reference_thresholds(t: float) -> ReferenceThresholds:
    """Evaluate the closed-form thresholds; requires |t| <= sqrt(5/2)/2."""
    if not abs(t) <= RHO_T_MAX + 1e-12:  # NaN fails too
        raise ValueError(f"thresholds are defined for |t| <= {RHO_T_MAX:.6f}")
    s = math.sqrt(3 * (67 - 112 * t + 64 * t * t))
    p1 = (2 * (13 - 24 * t + 8 * t * t) - s) / (5 - 4 * t) ** 2
    u = 8673 + 9632 * t - 8832 * t**2 - 6144 * t**3 + 4096 * t**4
    p2 = (91 + 48 * t + 64 * t * t - math.sqrt(u)) / (2 * (7 - 48 * t))
    p3 = (14 - 128 * t + 64 * t * t) / (7 - 80 * t + 128 * t * t)
    return ReferenceThresholds(p1=p1, p2=p2, p3=p3)
