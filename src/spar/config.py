"""Numerical tolerances shared across the package."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DEFAULT", "Tolerances"]


@dataclass(frozen=True)
class Tolerances:
    """Default tolerances for validation and verdicts.

    ``validation`` guards state construction (Hermiticity, unit trace, PSD),
    ``precondition`` guards algorithm inputs, ``verdict`` is the one margin
    of every verdict on a strict entanglement inequality (ties resolve to
    inconclusive).
    """

    validation: float = 1e-10
    precondition: float = 1e-8
    verdict: float = 1e-9
    coefficient: float = 1e-9
    spectrum_imag: float = 1e-7
    trace_positive: float = 1e-9
    moment_imag: float = 1e-9


DEFAULT = Tolerances()
