"""Bipartite density matrices: validation, named state families, random
test ensembles, and the on-disk state format.

Basis convention: the computational product basis |i>|j> ordered
lexicographically, so a dA x dB state lives on indices i*dB + j.

A state file is one JSON object, ``{"dims": [dA, dB], "matrix": ...}``. The
writer gives ``matrix`` as hex of the row-major little-endian complex128
bytes, exact and quick to decode; the reader also takes a list of
``[re, im]`` number pairs, for files written by hand.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .config import DEFAULT
from .exceptions import StateValidationError

__all__ = [
    "DensityMatrix",
    "validate_density",
    "rho_t",
    "rho_a",
    "isotropic",
    "alpha_state",
    "bell_state",
    "random_density",
    "random_separable",
    "random_schmidt_symmetric",
    "write_state_file",
    "read_state_file",
    "RHO_T_MAX",
]

# Validity bound for the two-qubit family below: sqrt(5/2)/2.
RHO_T_MAX = math.sqrt(2.5) / 2


@dataclass(frozen=True, eq=False, init=False)
class DensityMatrix:
    """A validated bipartite state with subsystem dimensions (dimA, dimB).

    Built only by :func:`validate_density`, which :func:`spar.realign.realign`
    trusts: ``matrix`` is the Hermitian part of the accepted input, finite,
    square, of size dimA*dimB and the state's own read-only copy. ``spectrum``
    holds its eigenvalues in ascending order, read-only, as
    :func:`validate_density` computed them for its PSD check.
    Calling the class raises ``TypeError``, so no unchecked matrix gets in.
    """

    dim_a: int
    dim_b: int
    matrix: np.ndarray = field(repr=False)
    spectrum: np.ndarray = field(repr=False)

    def __init__(self, *args, **kwargs):
        raise TypeError("a DensityMatrix is built only by validate_density")

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def __repr__(self) -> str:  # keep 81-number dumps out of test output
        return f"DensityMatrix(dims={self.dim_a}x{self.dim_b})"


def read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def is_integer(x) -> bool:
    """The one integer test of a dimension: an int or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def require_dimension(name: str, value, least: int = 1) -> int:
    """``value`` as an int if it is an integer (:func:`is_integer`) of at least
    ``least``; otherwise ``ValueError`` naming the argument ``name``."""
    if not (is_integer(value) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value}")
    return int(value)


def require_dims(dims, size: int) -> tuple[int, int]:
    """A tuple or list of two positive integers (no bool, no float) of product ``size``."""
    if not (isinstance(dims, (tuple, list)) and len(dims) == 2):
        raise StateValidationError("dims", f"must be a pair (dimA, dimB), got {dims!r}")
    dim_a, dim_b = dims
    if not all(is_integer(x) and x >= 1 for x in (dim_a, dim_b)):
        raise StateValidationError("dims", f"must be positive integers, got {dim_a} x {dim_b}")
    if dim_a * dim_b != size:
        raise StateValidationError("dims", f"matrix size {size} != dimA*dimB = {dim_a * dim_b}")
    return int(dim_a), int(dim_b)


def validate_density(m, dims: tuple[int, int]) -> DensityMatrix:
    """Check and wrap a candidate density matrix.

    Verifies squareness and finite entries (:func:`linalg.as_matrix`), the dims
    (:func:`require_dims`), Hermiticity, unit trace and positive semidefiniteness
    within ``DEFAULT.validation``, each failure a :class:`StateValidationError`.
    The state keeps the Hermitian part (M + M^dag)/2, which the trace and PSD
    checks read, so its realigned moments are real by construction. Exactly
    Hermitian input keeps its bits, signed zeros and subnormals included, but
    for a zero imaginary part on the diagonal (read as +0). So a state's own
    matrix validates to the same bits, and a state file reads back the state
    written to it.
    """
    tol = DEFAULT.validation
    a = linalg.as_matrix(m)
    dim_a, dim_b = require_dims(dims, a.shape[0])
    defect = linalg.hermiticity_defect(a)
    if defect > tol:
        raise StateValidationError("hermitian", f"|M - M^dag| = {defect:.3e} exceeds {tol:.1e}")
    # the state's own copy: the Hermitian part, summed first so an odd subnormal
    # keeps its last bit, then halved as doubles: h * 0.5 would multiply by
    # 0.5 + 0j, which sets the sign of a zero. A sum that overflows is inf, and
    # a trace over opposite infinities NaN. The sum's overflow flag is recorded,
    # so no second scan looks for an inf.
    overflow = []
    with np.errstate(over="call", invalid="ignore", call=lambda kind, _: overflow.append(kind)):
        h = a + a.conj().T
        halves = h.view(np.float64)
        halves *= 0.5
        tr = float(np.trace(h).real)  # the diagonal of h is exactly real
    if not abs(tr - 1.0) <= tol:  # NaN fails too
        raise StateValidationError("trace", f"trace = {tr} is not 1 within {tol:.1e}")
    if overflow:
        # the diagonal is finite here, so an off-diagonal sum overflowed: an
        # entry near 1e308, where a PSD matrix of unit trace has none above 1/2.
        # Refused before the eigensolver, which does not converge on an inf.
        raise StateValidationError("psd", "an off-diagonal entry of M + M^dag overflows")
    # what linalg.hermitian_eigenvalues checks has passed above, at the same slack
    spectrum = np.linalg.eigvalsh(h)
    lam_min = float(spectrum[0])
    if not lam_min >= -tol:
        raise StateValidationError("psd", f"minimum eigenvalue {lam_min:.3e} < -{tol:.1e}")
    rho = object.__new__(DensityMatrix)  # past the __init__ that refuses every other caller
    vars(rho).update(dim_a=dim_a, dim_b=dim_b, matrix=read_only(h), spectrum=read_only(spectrum))
    return rho


# ---------------------------------------------------------------------------
# state families
# ---------------------------------------------------------------------------

def rho_t(t: float) -> DensityMatrix:
    """Two-qubit family with one off-diagonal parameter t, |t| <= sqrt(5/2)/2.

    Entangled for every t != 0; the plain realignment criterion only sees
    |t| > 0.116117.
    """
    if not abs(t) <= RHO_T_MAX + 1e-12:  # NaN fails too
        raise ValueError(f"rho_t is a valid state only for |t| <= {RHO_T_MAX:.6f}, got {t}")
    m = 0.5 * np.array(
        [
            [1.25, 0, 0, t],
            [0, 0, 0, 0],
            [0, 0, 0.25, 0],
            [t, 0, 0, 0.5],
        ],
        dtype=np.complex128,
    )
    return validate_density(m, (2, 2))


def rho_a(a: float) -> DensityMatrix:
    """Two-qutrit NPT family mixing |0i> - a|i0| with the diagonal GHZ-like ray.

    Built from the unnormalized vectors |psi_1> = |01> - a|10>,
    |psi_2> = |02> - a|20> and |psi_3> = |00> + |11> + |22>; the prefactor
    1/(5 + 2a^2) normalizes the sum. Valid for 1/sqrt(2) <= a <= 1.
    """
    lo = 1 / math.sqrt(2)
    if not (lo - 1e-12 <= a <= 1 + 1e-12):
        raise ValueError(f"rho_a requires 1/sqrt(2) <= a <= 1, got {a}")
    psi1 = np.zeros(9, dtype=np.complex128)
    psi1[0 * 3 + 1] = 1.0
    psi1[1 * 3 + 0] = -a
    psi2 = np.zeros(9, dtype=np.complex128)
    psi2[0 * 3 + 2] = 1.0
    psi2[2 * 3 + 0] = -a
    psi3 = np.zeros(9, dtype=np.complex128)
    psi3[[0, 4, 8]] = 1.0
    m = sum(np.outer(v, v.conj()) for v in (psi1, psi2, psi3)) / (5 + 2 * a * a)
    return validate_density(m, (3, 3))


def bell_state(d: int) -> np.ndarray:
    """Maximally entangled ket (1/sqrt(d)) sum_i |ii> as a 1-D array, d >= 1."""
    d = require_dimension("d", d)
    v = np.zeros(d * d, dtype=np.complex128)
    v[:: d + 1] = 1 / math.sqrt(d)
    return v


def isotropic(beta: float, d: int = 3) -> DensityMatrix:
    """Isotropic state beta |phi+><phi+| + (1-beta)/d^2 I on d x d, d >= 2."""
    d = require_dimension("d", d, 2)
    lo = -1.0 / (d * d - 1)
    if not (lo - 1e-12 <= beta <= 1 + 1e-12):
        raise ValueError(f"isotropic requires {lo:.6f} <= beta <= 1, got {beta}")
    phi = bell_state(d)
    m = beta * np.outer(phi, phi.conj()) + (1 - beta) / (d * d) * np.eye(d * d)
    return validate_density(m, (d, d))


def alpha_state(alpha: float) -> DensityMatrix:
    """The 3x3 bound entangled alpha family (PPT entangled for 0 < alpha < 1)."""
    if not (0 - 1e-12 <= alpha <= 1 + 1e-12):
        raise ValueError(f"alpha_state requires 0 <= alpha <= 1, got {alpha}")
    a = alpha
    m = np.zeros((9, 9), dtype=np.complex128)
    for i in range(9):
        m[i, i] = a
    m[6, 6] = (1 + a) / 2
    m[8, 8] = (1 + a) / 2
    for i, j in ((0, 4), (0, 8), (4, 8)):
        m[i, j] = a
        m[j, i] = a
    root = math.sqrt(max(0.0, 1 - a * a)) / 2
    m[6, 8] = root
    m[8, 6] = root
    return validate_density(m / (8 * a + 1), (3, 3))


# ---------------------------------------------------------------------------
# random ensembles (seeded, reproducible)
# ---------------------------------------------------------------------------

def random_density(dim: int, seed) -> np.ndarray:
    """Ginibre-induced random density matrix of the given dimension, dim >= 1.

    Unlike the other constructors here it returns an unvalidated ``ndarray``,
    since a dimension alone does not split into subsystems: pass it through
    :func:`validate_density` with its dims to get a state.
    """
    dim = require_dimension("dim", dim)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m)


def _random_pure_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_separable(dim_a: int, dim_b: int, terms: int, seed) -> DensityMatrix:
    """Random separable state: a Dirichlet-weighted mixture of pure products."""
    dim_a, dim_b = require_dimension("dim_a", dim_a), require_dimension("dim_b", dim_b)
    terms = require_dimension("terms", terms)
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(terms))
    m = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=np.complex128)
    for q in weights:
        m += q * np.kron(_random_pure_density(dim_a, rng), _random_pure_density(dim_b, rng))
    return validate_density(m, (dim_a, dim_b))


def random_schmidt_symmetric(d: int, terms: int, seed) -> DensityMatrix:
    """Random state of the form sum_i w_i A_i (x) conj(A_i) with PSD factors.

    PSD factors keep each term A (x) conj(A) positive semidefinite, so the
    mixture is a valid state, and its realignment is a nonnegative sum of
    rank-one projectors, hence PSD: the trace norm of the realignment equals
    its trace.
    """
    d, terms = require_dimension("d", d), require_dimension("terms", terms)
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(terms))
    m = np.zeros((d * d, d * d), dtype=np.complex128)
    for w in weights:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = g @ g.conj().T
        m += w * np.kron(a, a.conj())
    return validate_density(m / np.trace(m).real, (d, d))


# ---------------------------------------------------------------------------
# state file format (shared with the CLI)
# ---------------------------------------------------------------------------

def write_state_file(path, rho: DensityMatrix) -> None:
    """Write ``{"dims": [dA, dB], "matrix": "<hex>"}`` as one line of JSON.

    ``matrix`` is the row-major matrix as little-endian complex128 bytes in
    hex, 32 digits per entry (the real part's 8 bytes, then the imaginary
    part's), so a read back reproduces the doubles bit for bit and decodes
    no decimal number.
    """
    payload = {"dims": [rho.dim_a, rho.dim_b],
               "matrix": rho.matrix.astype("<c16", copy=False).tobytes().hex()}
    with open(path, "w", encoding="utf-8") as fh:
        # one encode, one write: json.dump would write in many small chunks
        fh.write(json.dumps(payload) + "\n")


def read_state_file(path) -> DensityMatrix:
    """Read and validate a state file written by :func:`write_state_file`.

    ``matrix`` is either the writer's hex string or, for files written by
    hand, a row-major list of ``[re, im]`` number pairs. Either way the
    entries form a square matrix that :func:`validate_density` checks
    against ``dims``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # bad JSON, text that is not UTF-8, an integer past the digit
            # limit of int(), or arrays nested past the recursion limit
            raise StateValidationError("finite", f"not valid JSON: {exc}") from exc
    if not (isinstance(payload, dict) and "dims" in payload and "matrix" in payload):
        raise StateValidationError("dims", "state file needs 'dims' and 'matrix' fields")
    entries = payload["matrix"]
    flat = _hex_entries(entries) if isinstance(entries, str) else _pair_entries(entries)
    n = math.isqrt(flat.size)
    if n * n != flat.size:
        raise StateValidationError("shape", f"matrix length {flat.size} is not a perfect square")
    return validate_density(flat.reshape(n, n), payload["dims"])


def _hex_entries(digits: str) -> np.ndarray:
    """The complex128 entries of the writer's hex string, bytes as written."""
    try:
        raw = bytes.fromhex(digits)
    except ValueError as exc:  # a character that is not a hex digit, or an odd count
        raise StateValidationError("finite", f"matrix is not a hex string: {exc}") from exc
    if len(raw) % 16:
        raise StateValidationError(
            "shape", f"matrix hex holds {len(raw)} bytes, not a whole number of 16-byte entries")
    return np.frombuffer(raw, dtype="<c16")


def _pair_entries(pairs) -> np.ndarray:
    """The complex128 entries of a list of ``[re, im]`` number pairs."""
    try:
        flat = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise StateValidationError("finite", f"matrix entries must be [re, im] pairs: {exc}") from exc
    except OverflowError as exc:
        raise StateValidationError("finite", f"matrix entry too large for a double: {exc}") from exc
    # complex(True, False) is 1+0j, so a JSON true or false is refused by type
    if bool in set(map(type, itertools.chain.from_iterable(pairs))):
        raise StateValidationError("finite", "matrix entries must be numbers, not true or false")
    return flat
