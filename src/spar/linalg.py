"""Dense complex linear algebra primitives.

Everything here operates on plain ``numpy.ndarray`` values (complex128) and
delegates the heavy lifting to LAPACK through numpy. Matrices in this package
are small (9 x 9 at most in practice), so no sparse or blocked paths exist;
many small matrices of one size go to LAPACK as one stack instead, through
:func:`singular_values`, the one function here that takes a stack.
All functions are pure; inputs are never mutated.

The package's one matrix rule is :func:`as_matrix`. It refuses any matrix,
a state or not, with :class:`StateValidationError` (check shape or finite).
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT
from .exceptions import StateValidationError

__all__ = [
    "as_matrix",
    "hermiticity_defect",
    "hermitian_eigenvalues",
    "general_eigenvalues",
    "singular_values",
    "power_trace",
]


def as_matrix(m) -> np.ndarray:
    """``m`` as a square complex128 matrix of finite entries: an array that is
    not 2-D or not square fails the "shape" check, an entry that does not
    convert or is not finite the "finite" check."""
    a = _finite_complex(m, stacked=False)
    if a.shape[0] != a.shape[1]:
        raise StateValidationError("shape", f"matrix is not square: {a.shape}")
    return a


def _finite_complex(m, stacked: bool) -> np.ndarray:
    """The checks of :func:`as_matrix` but squareness; with ``stacked`` also a
    stack of matrices (leading axes index the matrices)."""
    try:
        a = np.asarray(m, dtype=np.complex128)
    except ValueError as exc:  # a ragged list, or an entry that is not a number
        raise StateValidationError("finite", str(exc)) from exc
    if a.ndim != 2 and not (stacked and a.ndim > 2):
        raise StateValidationError("shape", f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise StateValidationError("finite", "matrix contains non-finite entries")
    return a


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation of the square array ``a`` from its
    conjugate transpose; ``a`` is used as given, not coerced or checked."""
    return float(np.abs(a - a.conj().T).max()) if a.size else 0.0


def hermitian_eigenvalues(m) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix in ascending order.

    Refuses a matrix as :func:`as_matrix` does, and with ``ValueError`` one whose
    largest entrywise defect exceeds ``DEFAULT.validation``, as ``validate_density``
    does. No production path calls it (``validate_density`` takes its own
    ``eigvalsh`` of the Hermitian part): it stays as a name the benchmark's
    tracer counts and as the tests' oracle for a state's spectrum.
    """
    a = as_matrix(m)
    defect, tol = hermiticity_defect(a), DEFAULT.validation
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {tol:.1e})")
    return np.linalg.eigvalsh(a)


def general_eigenvalues(m) -> np.ndarray:
    """All eigenvalues (with multiplicity) of a square complex matrix.

    Standard balanced Hessenberg + shifted-QR path via LAPACK; numpy raises
    ``LinAlgError`` if the iteration fails to converge, which signals a
    pathological input. One production path calls it:
    ``RealignedMatrix.eigenvalues``, eig(R) computed at most once per state,
    for every R, Hermitian or not. ``spa.eigenvalue_offset`` checks its
    imaginary parts against ``DEFAULT.spectrum_imag``, and
    ``spa.certify_completely_positive`` takes ``gamma2`` from its largest
    real part. The PSD verdict itself comes from the moments, not from
    these eigenvalues; the tests also use this function as the oracle for
    that verdict.
    """
    return np.linalg.eigvals(as_matrix(m))


def singular_values(m) -> np.ndarray:
    """Singular values in descending order, min(rows, cols) of them.

    A stack of shape (..., rows, cols) goes to LAPACK in one gufunc call and
    gives shape (..., min(rows, cols)); each row equals the values of its
    matrix on its own.
    """
    return np.linalg.svd(_finite_complex(m, stacked=True), compute_uv=False)


def power_trace(m, k: int) -> complex:
    """Tr[m^k] by repeated multiplication, k >= 1."""
    a = as_matrix(m)
    if k < 1:
        raise ValueError("power trace requires k >= 1")
    acc = a
    for _ in range(k - 1):
        acc = acc @ a
    return complex(np.trace(acc))
