"""Exception types raised by the package."""

__all__ = ["DomainError", "StateValidationError"]


class StateValidationError(ValueError):
    """A matrix failed one of the density-matrix checks.

    ``check`` names the failed check: shape, dims, finite, hermitian,
    trace or psd. The matrix rule of :mod:`spar.linalg` raises it (shape or
    finite) for any matrix, not only for states.
    """

    def __init__(self, check: str, message: str):
        self.check = check
        super().__init__(f"{check}: {message}")


class DomainError(ValueError):
    """The realigned matrix is outside the applicability domain.

    The moment-based machinery needs a realigned matrix with positive trace
    and a real spectrum; raised when either fails.
    """
