"""Numerical tolerances shared across the package."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DEFAULT", "Tolerances"]


@dataclass(frozen=True)
class Tolerances:
    """Default tolerances, one per guard: ``validation`` for state construction
    (Hermiticity, unit trace, PSD), also the one "Hermitian within" slack,
    which ``linalg.hermitian_eigenvalues`` shares; ``verdict``, the one margin of
    every verdict on a strict entanglement inequality (ties resolve to
    inconclusive); ``coefficient``, the share of its recursion scale within
    which a coefficient counts as zero in the Descartes sign test;
    ``spectrum_imag``, the largest imaginary part of the realigned spectrum
    that the SPA threshold accepts; ``trace_positive``, what Tr R must exceed
    to pass the SPA's domain gate.
    """

    validation: float = 1e-10
    verdict: float = 1e-9
    coefficient: float = 1e-9
    spectrum_imag: float = 1e-7
    trace_positive: float = 1e-9


DEFAULT = Tolerances()
