"""The realignment operation R(.), its moments, and realignment-based tests.

Realignment permutes the entries of a bipartite matrix: with row index (i, j)
and column index (k, l) split over the two subsystems, the entry moves to row
(i, k), column (j, l). For a dA x dB state the result is dA^2 x dB^2. The
trace norm of the realigned matrix exceeding 1 certifies entanglement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .config import DEFAULT
from .exceptions import DomainError
from .states import DensityMatrix, read_only, require_dims

__all__ = [
    "Verdict",
    "Score",
    "RealignedMatrix",
    "realign_matrix",
    "realign",
    "realignment_criterion",
    "is_schmidt_symmetric",
    "realignment_moment",
]


class Verdict(enum.Enum):
    """Outcome of a one-sided separability test; no test certifies separability."""

    ENTANGLED = "entangled"
    INCONCLUSIVE = "inconclusive"


def verdict_margin(value: float | np.ndarray, bound: float | np.ndarray) -> float | np.ndarray:
    """``value - (bound + DEFAULT.verdict)``, the one verdict margin, of floats
    or elementwise of arrays: positive means entangled, so ties stay
    inconclusive, and so does NaN in either argument."""
    return value - (bound + DEFAULT.verdict)


@dataclass(frozen=True, slots=True)
class Score:
    """One one-sided test: a ``value`` against the ``bound`` that every
    separable state obeys. The verdict is derived, never stored; a record, not a tuple."""

    value: float
    bound: float

    @property
    def margin(self) -> float:
        """The one verdict margin, :func:`verdict_margin` of ``value`` and ``bound``."""
        return verdict_margin(self.value, self.bound)

    @property
    def verdict(self) -> Verdict:
        """Entangled iff :attr:`margin` is positive."""
        return Verdict.ENTANGLED if self.margin > 0 else Verdict.INCONCLUSIVE


def realign_matrix(m, dim_a: int, dim_b: int) -> np.ndarray:
    """Entry permutation (i,j),(k,l) -> (i,k),(j,l) on a (dA*dB)^2 matrix."""
    a = linalg.as_matrix(m)
    return _permute(a, *require_dims((dim_a, dim_b), a.shape[0]))


def _permute(a: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    return a.reshape(dim_a, dim_b, dim_a, dim_b).transpose(0, 2, 1, 3).reshape(dim_a**2, dim_b**2)


@dataclass(frozen=True, eq=False, init=False)
class RealignedMatrix:
    """The shared analysis of one state: its realignment R plus Tr[R], the
    singular values, the eigenvalues and the moments, each computed at most
    once. Every per-state function accepts it in place of the state, and
    every number a verdict or certificate prints is read from it.

    Built only by :func:`realign`, so R is always the realignment of
    ``state``; calling the class raises ``TypeError``, as for
    :class:`DensityMatrix`. It is frozen and fills its own caches; R and
    each cached array are read-only.

    ``moment(k)`` returns Tr[R^k], and ``moment(1)`` is Tr R; those traces are
    real, since the state's matrix is Hermitian (conj(R) = P R P, P the swap),
    so the cache keeps their real parts. Moments need square R (dimA == dimB).
    """

    state: DensityMatrix
    matrix: np.ndarray = field(repr=False)
    _moments: list[float] = field(repr=False)

    def __init__(self, *args, **kwargs):
        raise TypeError("a RealignedMatrix is built only by realign")

    @property
    def dim_a(self) -> int:
        return self.state.dim_a

    @property
    def dim_b(self) -> int:
        return self.state.dim_b

    @property
    def is_square(self) -> bool:
        return self.dim_a == self.dim_b

    @cached_property
    def spa_trace(self) -> float:
        """Tr[R] behind the SPA's domain gate: unequal subsystem dimensions raise
        ``ValueError``, then a trace ``moment(1)`` not positive :class:`DomainError`."""
        if not self.is_square:
            raise ValueError("the SPA requires equal subsystem dimensions")
        tr = self.moment(1)
        if tr <= DEFAULT.trace_positive:
            raise DomainError(f"realigned trace {tr} is not positive")
        return tr

    def moment(self, k: int) -> float:
        if k < 1:
            raise ValueError("moment requires k >= 1")
        self._extend(k)
        return self._moments[k - 1]

    def moments(self, count: int) -> np.ndarray:
        """m_1 .. m_count as a real array."""
        self._extend(count)
        return np.array(self._moments[:count])

    def _extend(self, count: int) -> None:
        """Cache m_1 .. m_count. m_1 is R's own trace. Each further moment
        not yet cached costs one matmul of the running product, written into
        one new stack, and one stacked trace reads them all, so m_1 .. m_n
        cost n - 1 matmuls. Only the last R^k, a row of its stack, is kept."""
        if not self.is_square:
            raise ValueError("moments require equal subsystem dimensions")
        moments, matrix = self._moments, self.matrix
        if not moments and count > 0:
            moments.append(float(matrix.trace().real))
        new = count - len(moments)
        if new <= 0:
            return
        power = self.__dict__.get("_power", matrix)
        stack = np.empty((new, *matrix.shape), dtype=matrix.dtype)
        for out in stack:
            power = np.matmul(power, matrix, out=out)
        moments += stack.trace(axis1=1, axis2=2).real.tolist()
        self.__dict__["_power"] = power

    @cached_property
    def singular_values(self) -> np.ndarray:
        return read_only(linalg.singular_values(self.matrix))

    def singular_values_with(self, stack: np.ndarray) -> np.ndarray:
        """σ of every matrix of a stack from ``spa._mixture`` but its last, R,
        from one SVD call; R's row is cached read-only as :attr:`singular_values`."""
        sigma = read_only(linalg.singular_values(stack))
        self.__dict__.setdefault("singular_values", sigma[-1])
        return sigma[:-1]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """eig(R), the complex eigenvalues of one general eigensolve, computed
        once. Two readers: the real-spectrum check of ``spa.eigenvalue_offset``,
        for every R, and the CP certificate; no boundary search reads eig(R)."""
        return read_only(linalg.general_eigenvalues(self.matrix))

    @cached_property
    def trace_norm(self) -> float:
        """||R||_1, the sum of :attr:`singular_values`, summed once."""
        return float(np.sum(self.singular_values))


# what every per-state function accepts: a state or its shared analysis
StateLike = DensityMatrix | RealignedMatrix


def realign(rho: DensityMatrix) -> RealignedMatrix:
    """Realign a validated state without a second check; the result is its shared analysis."""
    r = object.__new__(RealignedMatrix)  # past the __init__ that refuses every other caller
    vars(r).update(state=rho, matrix=read_only(_permute(rho.matrix, rho.dim_a, rho.dim_b)),
                   _moments=[])
    return r


def as_realigned(source: StateLike) -> RealignedMatrix:
    """The shared analysis of ``source``: itself if already realigned."""
    return source if isinstance(source, RealignedMatrix) else realign(source)


def realignment_criterion(rho: StateLike) -> Score:
    """Plain realignment test: ||R(rho)||_1 against its separable bound 1."""
    return Score(as_realigned(rho).trace_norm, 1.0)


def is_schmidt_symmetric(rho: StateLike) -> bool:
    """True iff dimA == dimB and Tr[R(rho)] equals ||R(rho)||_1 within
    ``DEFAULT.verdict``.

    That equality characterizes states expressible as sum_i w_i A_i (x)
    conj(A_i) with nonnegative weights, and is equivalent to the realigned
    matrix being positive semidefinite in the given product basis, so the
    answer depends on the local basis. Such a sum needs equal subsystem
    dimensions, so unequal ones give False.
    """
    r = as_realigned(rho)
    return r.is_square and abs(r.trace_norm - r.moment(1)) <= DEFAULT.verdict


def realignment_moment(rho: StateLike, k: int) -> float:
    """Singular-value moment r_k = sum_i sigma_i(R(rho))^k, k >= 1.

    r_1 is the realignment trace norm; r_k = Tr[(R R^dag)^(k/2)].
    """
    if k < 1:
        raise ValueError("realignment_moment requires k >= 1")
    sigma = as_realigned(rho).singular_values
    return float(np.sum(sigma**k))
