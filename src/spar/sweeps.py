"""Parameter sweeps, boundary bisection and the detection-window table.

Grid evaluation is deterministic and parameter-major. Each parameter row
scores its whole p-grid with one stacked SVD (one LAPACK call for all the
SPA matrices of the row); every norm is the same double as a per-cell
evaluation would give, so the rows are byte for byte those of a cell-by-cell
loop. Boundary search uses plain bisection, which relies on the violation
region being an interval in the swept variable (true for every family
handled here).
"""

from __future__ import annotations

import csv
import io
from collections.abc import Callable, Iterable, Iterator, Sequence

from .config import DEFAULT
from .criteria import q1_realignment_moments, q2_rmoment, spa_r_scores, spa_r_verdict
from .exceptions import DomainError
from .realign import StateLike, Verdict, as_realigned, realign
from .spa import spa_threshold
from .states import DensityMatrix, alpha_state, isotropic, rho_a, rho_t

__all__ = [
    "FAMILIES",
    "family_state",
    "bisect_boundary",
    "violation_p_max",
    "sweep_rows",
    "SWEEP_COLUMNS",
    "csv_text",
    "table1_rows",
    "TABLE1_ALPHAS",
]

FAMILIES: dict[str, Callable[[float], DensityMatrix]] = {
    "rho_t": rho_t,
    "rho_a": rho_a,
    "isotropic": isotropic,
    "alpha_state": alpha_state,
}

TABLE1_ALPHAS = tuple(round(0.1 * i, 1) for i in range(1, 10))

SWEEP_COLUMNS = ("param", "p", "traceNormSpaR", "upperBound", "violated", "l", "k", "q1", "q2")


def csv_text(rows: Iterable[dict], columns: Sequence[str]) -> str:
    """Rows as CSV: a header line, then one line per row, each ended by a bare LF.

    Floats are written as their shortest round-trip repr and None as an
    empty cell, so the text is lossless and byte-deterministic.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([row[c] for c in columns] for row in rows)
    return out.getvalue()


def family_state(name: str, param: float) -> DensityMatrix:
    try:
        ctor = FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}") from None
    return ctor(param)


def bisect_boundary(
    predicate: Callable[[float], bool], lo: float, hi: float, tol: float = 1e-7
) -> float:
    """Locate the flip point of a boolean predicate between lo and hi.

    ``predicate(lo)`` and ``predicate(hi)`` must differ; the returned value
    is within ``tol`` of the crossing.
    """
    flo = bool(predicate(lo))
    if bool(predicate(hi)) == flo:
        raise ValueError(f"predicate does not change between {lo} and {hi}")
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if bool(predicate(mid)) == flo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def violation_p_max(rho: StateLike, tol: float = 1e-7) -> float | None:
    """Largest p at which the SPA separability bound is violated.

    Assumes the violated set is an interval starting at p = 0 (it always
    ends before p = 1, where the bound is saturated). Returns None when the
    state is not detected even at p = 0.
    """
    r = as_realigned(rho)

    def violated(p: float) -> bool:
        return spa_r_verdict(r, p) == Verdict.ENTANGLED

    if not violated(0.0):
        return None
    return bisect_boundary(violated, 0.0, 1.0, tol=tol)


def sweep_rows(
    family: str,
    params: Iterable[float],
    ps: Iterable[float],
    verdict_tol: float = DEFAULT.verdict,
) -> Iterator[dict]:
    """Grid rows for one family, parameter-major.

    Columns: :data:`SWEEP_COLUMNS` (q2 empty outside 3x3 systems). Threshold
    data that cannot be certified for a grid point (realigned spectrum not
    real) is reported as NaN rather than aborting the sweep. Each parameter
    row is realigned once and scored over the whole p-grid by
    :func:`spa_r_scores`; a p outside [0, 1] raises before the first row.
    """
    ps = list(ps)
    for param in params:
        r = realign(family_state(family, param))
        try:
            threshold = spa_threshold(r)
            l, k = threshold.l, threshold.k
        except DomainError:
            l, k = float("nan"), float("nan")
        q1 = q1_realignment_moments(r)
        q2 = q2_rmoment(r) if (r.dim_a, r.dim_b) == (3, 3) else None
        for p, (verdict, norm, bound) in zip(ps, spa_r_scores(r, ps, verdict_tol)):
            yield {
                "param": param,
                "p": p,
                "traceNormSpaR": norm,
                "upperBound": bound,
                "violated": int(verdict == Verdict.ENTANGLED),
                "l": l,
                "k": k,
                "q1": q1,
                "q2": q2,
            }


def table1_rows() -> list[dict]:
    """Largest violating p for each alpha-state parameter in TABLE1_ALPHAS."""
    return [
        {"alpha": alpha, "p_max": violation_p_max(alpha_state(alpha))} for alpha in TABLE1_ALPHAS
    ]
