"""Parameter sweeps, boundary search and the detection-window table.

Grid evaluation is deterministic and parameter-major. Each parameter row
scores its whole p-grid with one stacked SVD (one LAPACK call for all the
SPA matrices of the row); every norm is the same double as a per-cell
evaluation would give, so the rows are byte for byte those of a cell-by-cell
loop. A sweep checks its p-grid once, at its first state, and runs each
state's domain gate once; a boundary search runs the gate once and checks no
p, since every point it probes lies on [0, 1] by construction.

One per-state helper feeds two views of a sweep table: :func:`sweep_rows`
(dicts) and :func:`sweep_csv` (the CSV text of ``spar sweep`` and the
reproduce script, each repeated cell formatted once). :func:`csv_text`
writes other tables by the same cell rule: a value's ``str``, None as empty,
nothing quoted, and a cell that would need quoting raises.

The detection edge in p needs no interval assumption: the excess
||spa(rho; p)||_1 - (p + (1-p)/Tr R) is convex in p and vanishes at p = 1, so
the violated set is an interval [0, p*). :func:`violation_p_max` brackets p*
from both sides by convexity and returns the midpoint of the cell of the
dyadic grid that :func:`bisect_boundary` on [0, 1] would return.
:func:`bisect_boundary` stays for searches in other variables, where it
relies on the predicate flipping once between its end points.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence

from . import spa
from .criteria import (
    _spa_r_probe,
    _spa_r_score_at_one,
    _spa_r_scores,
    q1_realignment_moments,
    q2_rmoment,
)
from .exceptions import DomainError
from .realign import Score, StateLike, as_realigned
from .spa import spa_threshold
from .states import DensityMatrix, alpha_state, isotropic, rho_a, rho_t

__all__ = [
    "FAMILIES",
    "family_state",
    "bisect_boundary",
    "violation_p_max",
    "sweep_rows",
    "sweep_csv",
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

_QUOTED = frozenset(',"\r\n')  # a comma, a double quote, a line break


def _cell(value) -> str:
    """One CSV cell: the value's ``str`` (a float's shortest round-trip
    repr), None as empty; a cell that CSV would quote raises ``ValueError``."""
    text = "" if value is None else str(value)
    if not _QUOTED.isdisjoint(text):
        raise ValueError(f"CSV cell {text!r} would need quoting")
    return text


def _line(cells: Sequence) -> str:
    """One CSV line, without its end: the cells joined by commas."""
    line = ",".join(map(_cell, cells))
    if not line and cells:
        # a lone empty cell is quoted, or the row would read back as blank
        raise ValueError("a row of one empty cell would need quoting")
    return line


def csv_text(rows: Iterable[dict], columns: Sequence[str]) -> str:
    """Rows as CSV: a header line, then one line per row, each ended by a bare LF.

    Cells follow :func:`_cell`, so the text is lossless, byte-deterministic
    and what :mod:`csv`'s writer gives with ``lineterminator="\\n"``.
    """
    lines = [_line(columns)]
    lines.extend(_line([row[c] for c in columns]) for row in rows)
    lines.append("")
    return "\n".join(lines)


def family_state(name: str, param: float) -> DensityMatrix:
    try:
        ctor = FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}") from None
    return ctor(param)


def _require_tolerance(tol: float) -> None:
    """A search tolerance must be finite and positive, or the search never ends."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def bisect_boundary(
    predicate: Callable[[float], bool], lo: float, hi: float, tol: float = 1e-7
) -> float:
    """Locate the flip point of a boolean predicate between lo and hi.

    ``predicate(lo)`` and ``predicate(hi)`` must differ; the returned value
    is within ``tol`` of the crossing. ``tol`` must be finite and positive; a
    tol below the double spacing near the crossing raises once the bracket
    stops shrinking.
    """
    _require_tolerance(tol)
    flo = bool(predicate(lo))
    if bool(predicate(hi)) == flo:
        raise ValueError(f"predicate does not change between {lo} and {hi}")
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            raise ValueError(f"tol {tol} is below the double spacing near {mid}")
        if bool(predicate(mid)) == flo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_SECANT_STEPS = 32
"""Probes of :func:`violation_p_max` guided by secant and chord roots; later
probes bisect, so a search ends after at most _SECANT_STEPS + 52 probes."""


def _grid_step(tol: float) -> float:
    """Cell width h = 2**-j at which bisection of [0, 1] with ``tol`` stops:
    the largest power of two not above tol, and 1 for tol >= 1."""
    _require_tolerance(tol)
    if tol < sys.float_info.epsilon:
        raise ValueError(f"tol {tol} is below the double spacing at p = 1")
    h = 1.0
    while h > tol:
        h *= 0.5
    return h


def _zero(x0: float, y0: float, x1: float, y1: float) -> float:
    """Where the line through (x0, y0) and (x1, y1) crosses zero; NaN if it is flat."""
    return x0 + y0 * (x1 - x0) / (y0 - y1) if y0 != y1 else math.nan


def _flip_cell(
    excess: Callable[[float], float], h: float, g0: float, g1: float, chord_first: bool
) -> int:
    """Index k of a grid cell [k h, (k+1) h] whose left end is violated
    (``excess > 0``) and whose right end is not, given g0 = excess(0) > 0 and
    g1 = excess(1) <= 0.

    Only grid points are probed and the bracket [a h, b h] (a violated, b
    not) shrinks with every probe. For a convex excess the chord from a to b
    crosses zero at an upper bound of the edge, and the secant through the
    last two violated points crosses zero at a lower bound. The first probe
    is the grid point below the chord root when ``chord_first``, which ends
    the search when the excess is linear, and the secant seed h otherwise,
    whose excess gives the first secant. Later probes take the grid point
    below the secant root, or below the chord root once the two roots are at
    most a cell apart; a probe at or beyond an end of the bracket moves
    inside it. Roots that are not finite or not ordered a <= lower <= upper
    <= b (values that are not convex) give a bisection step, as does every
    probe after the first :data:`_SECANT_STEPS`.
    """
    a, ga = 0, g0
    b, gb = round(1 / h), g1
    prev = None  # (index, excess) of the violated point before a
    for step in itertools.count():
        if b == a + 1:
            return a
        upper = _zero(a * h, ga, b * h, gb)
        lower = a * h if prev is None else _zero(prev[0] * h, prev[1], a * h, ga)
        if step < _SECANT_STEPS and a * h <= lower <= upper <= b * h:
            k_lower, k_upper = math.floor(lower / h), math.floor(upper / h)
            chord = (step == 0 and chord_first) or k_upper <= k_lower + 1
            k = min(max(k_upper if chord else k_lower, a + 1), b - 1)
        else:
            k = (a + b) // 2
        gk = excess(k * h)
        if gk > 0:
            prev, a, ga = (a, ga), k, gk
        else:
            b, gb = k, gk


def violation_p_max(rho: StateLike, tol: float = 1e-7) -> float | None:
    """Largest p at which the SPA separability bound is violated, or None
    when the state is not detected even at p = 0.

    The excess g(p) = ||spa(rho; p)||_1 - (bound(p) + ``DEFAULT.verdict``),
    the :attr:`Score.margin` of the SPA-R score at p, is positive exactly
    where the verdict is ENTANGLED. It is convex in p, and at p = 1, where
    SPA(1) = I/n has norm 1 against the bound 1, it is -``DEFAULT.verdict``
    in closed form, with no probe. So the violated set is an interval
    [0, p*). Let h = 2**-j be the largest power of two not above ``tol``.
    The result is the midpoint of the grid cell [k h, (k+1) h] whose left
    end is violated and whose right end is not: the value that bisection of
    [0, 1] with ``tol`` (:func:`bisect_boundary`) returns, bit for bit, on
    the verdict of the probe used here, whenever that verdict flips once on
    the grid. Convex brackets find that cell in a few probes (see
    :func:`_flip_cell`). The first probe follows Tr R. The SPA output has
    unit trace, so its norm is at least 1, and exactly 1 near p = 1, where
    it is positive semidefinite: g(p) >= (1 - p)(1 - 1/Tr R) -
    ``DEFAULT.verdict``, with equality near 1. For Tr R > 1 the edge thus
    lies within ``DEFAULT.verdict`` / (1 - 1/Tr R) of 1, and the first probe
    is the grid point below the chord root. For Tr R <= 1, g is at most
    -``DEFAULT.verdict`` near 1, and the chord from (0, g0) to (1, g(1))
    crosses zero within about ``DEFAULT.verdict`` / g0 of 1, where a probe
    would cut the bracket by a cell or so; the first probe is the secant
    seed h instead.

    The probe (``criteria._spa_r_probe``, prepared once per search) is the
    closed form over eig(R) (one Hermitian eigensolve, then O(n) floats per
    probe) when R is exactly Hermitian, as for every isotropic state, and
    the SPA matrix's SVD otherwise; the two norms agree up to rounding.
    ``tol`` must be finite and at least the double spacing at 1, 2**-52.
    """
    h = _grid_step(tol)
    r = as_realigned(rho)
    probe = _spa_r_probe(r)  # runs the domain gate once

    def excess(p: float) -> float:
        # p = k h lies on [0, 1] by construction, so no probe checks its weight
        return probe(p).margin

    g0 = excess(0.0)
    if g0 <= 0:
        return None
    g1 = _spa_r_score_at_one(r).margin
    k = _flip_cell(excess, h, g0, g1, chord_first=r.spa_trace > 1.0)
    return 0.5 * (k * h + (k + 1) * h)


def _state_blocks(
    states: Iterable[tuple[float, StateLike]], ps: list[float]
) -> Iterator[tuple[float, tuple, list[Score]]]:
    """Each ``(param, state)`` pair as ``(param, (l, k, q1, q2), scores)``,
    the scores being those of :func:`spa_r_scores` over ``ps``; each state is
    scored first, before the next is drawn.

    ``ps`` is checked once, through ``spa.require_weights`` at the first
    state, so a p outside [0, 1] raises before that state's gate, q1, q2 and
    threshold, and a sweep of no states checks nothing. Each state is then
    scored by :func:`_spa_r_scores`, which runs that state's domain gate.

    What cannot be computed is NaN rather than aborting the sweep: when the
    domain gate refuses the realigned trace, each score's value and bound (a
    NaN margin, so the verdict stays inconclusive) and l and k, with no
    threshold run; l and k alone when the spectrum is not real. q2 is None
    outside 3x3 systems.
    """
    nan = float("nan")
    weights = None  # ps as checked floats, once the first state is drawn
    for param, rho in states:
        r = as_realigned(rho)
        if weights is None:
            weights = spa.require_weights(ps)
        scores, l, k = [Score(nan, nan)] * len(ps), nan, nan
        with contextlib.suppress(DomainError):  # what raises keeps its NaN
            scores = _spa_r_scores(r, weights)
            threshold = spa_threshold(r)  # only once the gate accepted the trace
            l, k = threshold.l, threshold.k
        q1 = q1_realignment_moments(r)
        q2 = q2_rmoment(r) if (r.dim_a, r.dim_b) == (3, 3) else None
        yield param, (l, k, q1, q2), scores


def sweep_rows(states: Iterable[tuple[float, StateLike]], ps: Iterable[float]) -> Iterator[dict]:
    """The sweep table of ``(param, state)`` pairs over a p-grid as
    :data:`SWEEP_COLUMNS` dicts: the rows :func:`sweep_csv` writes."""
    ps = list(ps)
    for param, columns, scores in _state_blocks(states, ps):
        for p, score in zip(ps, scores):
            violated = int(score.margin > 0)
            yield dict(zip(SWEEP_COLUMNS, (param, p, score.value, score.bound, violated, *columns)))


def sweep_csv(states: Iterable[tuple[float, StateLike]], ps: Iterable[float]) -> str:
    """The sweep table of ``(param, state)`` pairs over a p-grid as CSV text.

    The bytes of :func:`csv_text` over :func:`sweep_rows`, with far less
    formatting: each p is formatted once per sweep, and ``param``, l, k, q1
    and q2 once per state, so a cell formats only its norm, bound and
    verdict. Those are numbers, which never need quoting.
    """
    ps = list(ps)
    p_cells = [_cell(p) for p in ps]
    lines = [_line(SWEEP_COLUMNS)]
    for param, columns, scores in _state_blocks(states, ps):
        head = _cell(param) + ","
        tail = "," + _line(columns)
        for p, score in zip(p_cells, scores):
            violated = "1" if score.margin > 0 else "0"
            lines.append(f"{head}{p},{score.value!s},{score.bound!s},{violated}{tail}")
    lines.append("")
    return "\n".join(lines)


def table1_rows() -> list[dict]:
    """Largest violating p for each alpha-state parameter in TABLE1_ALPHAS."""
    return [
        {"alpha": alpha, "p_max": violation_p_max(alpha_state(alpha))} for alpha in TABLE1_ALPHAS
    ]
