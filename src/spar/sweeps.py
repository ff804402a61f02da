"""Parameter sweeps, boundary search and the detection-window table.

Grid evaluation is deterministic and parameter-major. Each state is scored
in one pass: one SVD call decomposes the SPA matrices of its whole p-grid
and R, and its norms, bounds and verdicts are array operations; every value
is the same double as a per-cell evaluation would give, so the rows are byte for byte those of a cell-by-cell loop. A
sweep checks its p-grid once, at its first state, and runs each state's
domain gate once; a boundary search runs the gate once and checks no p,
since every point it probes lies on [0, 1] by construction.

One per-state helper feeds two views of a sweep table: :func:`sweep_rows`
(dicts) and :func:`sweep_csv` (the CSV text of ``spar sweep`` and the
reproduce script, each repeated cell formatted once). :func:`csv_text`
writes other tables by the same cell rule: a value's ``str``, None as empty,
nothing quoted, and a cell that would need quoting raises.

The detection edge in p needs no interval assumption: the excess
||spa(rho; p)||_1 - (p + (1-p)/Tr R) is convex in p and vanishes at p = 1, so
the violated set is an interval [0, p*). :func:`violation_p_max` reads Tr R
first: SPA(p) has unit trace, so its norm is at least 1 and the excess at
least (1 - p)(1 - 1/Tr R) less the margin, which for Tr R > 1 shows a run of
grid points violated without a probe, the whole grid but the end at tol
1e-7 once Tr R >= 1.0171. It then brackets p* from both sides by convexity
and returns the midpoint of the cell of the dyadic grid that
:func:`bisect_boundary` on [0, 1] would return.
:func:`bisect_boundary` stays for searches in other variables, where it
relies on the predicate flipping once between its end points.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import spa
from .config import DEFAULT
from .criteria import (
    _spa_r_pass,
    _spa_r_probe,
    q1_realignment_moments,
    q2_rmoment,
    spa_r_upper_bound,
)
from .exceptions import DomainError
from .realign import StateLike, as_realigned, verdict_margin
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
"""Probes of :func:`violation_p_max` guided by secant, three-point and chord
roots; later probes bisect, so a search ends after at most _SECANT_STEPS + 52
probes."""


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
    excess: Callable[[float], float], h: float, a: int, ga: float, gb: float, chord_first: bool
) -> int:
    """Index k of a grid cell [k h, (k+1) h] whose left end is violated
    (``excess > 0``) and whose right end is not, within the bracket [a h, 1]:
    a h is violated, ga > 0 is its excess or a lower bound of it, and
    gb = excess(1) <= 0.

    Only grid points are probed and the bracket [a h, b h] (a violated, b
    not) shrinks with every probe. For a convex excess the chord from a to b
    crosses zero at an upper bound of the edge, and the secant through the
    last two violated points crosses zero at a lower bound. The first probe
    is the grid point below the chord root when ``chord_first``, which ends
    the search when the excess is linear, and the secant seed a + 1
    otherwise, whose excess gives the first secant. Later probes take the
    grid point below the chord root once the two roots are at most a cell
    apart. Before that they take the grid point below the secant root, or,
    once three violated points are known, below the root of the inverse
    quadratic through the last three (p as a quadratic in the excess, at
    excess 0; order 1.84 against the secant's 1.62) when that root lies
    between the secant and chord roots. Two equal excesses among the three
    leave that root NaN, and the secant step runs. A probe at or beyond an
    end of the bracket moves inside it. Where the excess is linear up to
    rounding the two roots coincide and come out in either order, so lower
    may exceed upper by up to a cell. Roots that are not finite or not so
    ordered (a <= lower <= upper + h, upper <= b: values that are not
    convex) give a bisection step, as does every probe after the first
    :data:`_SECANT_STEPS`. A ga that only bounds the excess from below makes
    the first roots guides rather than bounds; the bracket, and so the cell,
    still moves on probes alone.
    """
    b = round(1 / h)
    prev = older = None  # (index, excess) of the violated points before a, the latest first
    for step in itertools.count():
        if b == a + 1:
            return a
        upper = _zero(a * h, ga, b * h, gb)
        lower = a * h if prev is None else _zero(prev[0] * h, prev[1], a * h, ga)
        if step < _SECANT_STEPS and a * h <= lower <= upper + h and upper <= b * h:
            k_lower, k_upper = math.floor(lower / h), math.floor(upper / h)
            chord = (step == 0 and chord_first) or k_upper <= k_lower + 1
            k = k_upper if chord else k_lower
            if not chord and older is not None:
                # Neville's form: the secant roots of (older, prev) and of
                # (prev, a) = lower, interpolated linearly in g to g = 0
                root = _zero(_zero(older[0] * h, older[1], prev[0] * h, prev[1]), older[1],
                             lower, ga)
                if lower <= root <= upper:
                    k = math.floor(root / h)
            k = min(max(k, a + 1), b - 1)
        else:
            k = (a + b) // 2
        gk = excess(k * h)
        if gk > 0:
            older, prev, a, ga = prev, (a, ga), k, gk
        else:
            b, gb = k, gk


def _rounding_slack(n: int) -> float:
    """s(n) = 16 n**2 eps: twice what rounding may take off the computed
    trace norm of an n x n SPA matrix of a state with Tr R >= 1.

    The exact norm is at least |Tr SPA(p)| = 1. Realignment permutes the
    entries of rho, so ||R||_2 <= ||R||_F = ||rho||_F <= Tr rho = 1, and
    ||SPA(p)||_2 <= p/n + (1-p)/Tr R <= 1. Forming a I + b R rounds each
    entry by at most eps relative; a backward-stable SVD moves each of the n
    values by a small multiple of n eps ||SPA(p)||_2 <= n eps; summing them
    adds n eps relative, and the Tr R that b divides by is the trace's
    rounded sum. So the computed norm is at least 1 - O(n**2 eps), and s(n)/2
    = 8 n**2 eps leaves a factor of 64 over the largest shortfall measured
    for d = 2..6, 0.125 n**2 eps (a tier-1 property test checks 1 - s(n)/2 on
    both norm paths: the probe's buffer and the stacked SVD of
    ``spa_r_scores``). The other half of s(n) covers the few
    eps that the bound p + (1-p)/Tr R, the margin and their comparison round
    by.
    """
    return 16 * n * n * sys.float_info.epsilon


def _trace_settled(trace_r: float, h: float, n: int) -> int:
    """For Tr R > 1, the largest grid index a < 1/h that the trace bound
    alone shows violated, (1 - a h)(1 - 1/Tr R) > ``DEFAULT.verdict`` + s(n);
    -1 when no grid point is.

    Every computed excess of an n x n SPA matrix, its bound's rounding
    included, exceeds (1 - p)(1 - 1/Tr R) - ``DEFAULT.verdict`` - s(n) (see
    :func:`_rounding_slack`), so each probe at p <= a h would be ENTANGLED.
    """
    # the largest a with (top - a) h rate > slack; a double Tr R > 1 has
    # 1/Tr R <= 1 - 2**-52, and h >= 2**-52, so q is finite
    rate = 1.0 - 1.0 / trace_r
    q = (DEFAULT.verdict + _rounding_slack(n)) / (h * rate)
    return max(round(1 / h) - 1 - math.floor(q), -1)


def violation_p_max(rho: StateLike, tol: float = 1e-7) -> float | None:
    """Largest p at which the SPA separability bound is violated, or None
    when the state is not detected even at p = 0.

    The excess g(p) = ||spa(rho; p)||_1 - (bound(p) + ``DEFAULT.verdict``),
    the :func:`verdict_margin` of the norm against its bound, is positive
    exactly where the verdict is ENTANGLED. It is convex in p, and at p = 1,
    where SPA(1) = I/n has norm 1 against the bound 1, it is the constant
    ``verdict_margin(1.0, 1.0)``. So the violated set is an interval
    [0, p*). Let h = 2**-j be the largest power of two not above ``tol``.
    The result is the midpoint of the grid cell [k h, (k+1) h] whose left
    end is violated and whose right end is not: the value that bisection of
    [0, 1] with ``tol`` (:func:`bisect_boundary`) returns, bit for bit, on
    ``criteria.spa_r_verdict``, whenever that verdict flips once on the grid.
    Convex brackets find that cell in a few probes (see
    :func:`_flip_cell`): the chord root from above, and from below the
    secant root through the last two violated points or, once there are
    three, the inverse-quadratic root through them where it lies between
    the two. At tol 1e-7 the nine Table 1 alphas take 58 probes (6 or 7
    each), against 27 each for bisection.

    Tr R comes first, through the domain gate. SPA(p) has unit trace, so
    ||SPA(p)||_1 >= 1 for every p, and g(p) >= (1 - p)(1 - 1/Tr R) -
    ``DEFAULT.verdict``, with equality where SPA(p) is positive
    semidefinite (near p = 1 when R is Hermitian). For Tr R > 1 (the
    fidelity witness Tr R = d <Phi+|rho|Phi+> > 1) this bound, less the
    rounding slack of :func:`_rounding_slack`, shows every grid point up to
    an index a violated without a probe (:func:`_trace_settled`). When a is
    the last interior grid point, the edge is in the last cell and the
    search returns its midpoint 1 - h/2 with no probe; at tol 1e-7 that
    holds for every Tr R >= 1.0171. Otherwise the bracket opens at
    [a h, 1], the bound at a h standing in for the excess there, and the
    first probe is the grid point below the chord root. For
    Tr R <= 1, or a Tr R so close to 1 that no grid point is settled, the
    search probes p = 0 first; for Tr R <= 1, g is at most
    -``DEFAULT.verdict`` near 1, and the chord from (0, g0) to (1, g(1))
    crosses zero within about ``DEFAULT.verdict`` / g0 of 1, where a probe
    would cut the bracket by a cell or so, so the next probe is the secant
    seed h instead.

    Each probe (``criteria._spa_r_probe``, prepared once per search that
    probes) is one SVD and returns the norm that ``criteria.spa_r_verdict``
    reads; every excess here is a :func:`verdict_margin`, as a sweep's
    verdicts are. ``tol`` must be finite and at least the double spacing at
    1, 2**-52.
    """
    h = _grid_step(tol)
    r = as_realigned(rho)
    trace_r = r.spa_trace  # the domain gate, once
    a = -1
    if trace_r > 1.0:
        a = _trace_settled(trace_r, h, r.dim_a * r.dim_b)
        if a == round(1 / h) - 1:
            return 0.5 * (a * h + (a + 1) * h)
    probe = _spa_r_probe(r)

    def excess(p: float) -> float:
        # p = k h lies on [0, 1] by construction, so no probe checks its weight
        return verdict_margin(probe(p), spa_r_upper_bound(trace_r, p))

    if a < 0:
        a, ga = 0, excess(0.0)
        if ga <= 0:
            return None
    else:
        # the norm is at least 1, and 1 - bound(a h) = (1 - a h)(1 - 1/Tr R)
        ga = verdict_margin((1.0 - a * h) * (1.0 - 1.0 / trace_r), 0.0)
    g1 = verdict_margin(1.0, 1.0)  # SPA(1) = I/n has norm 1; bound(1) is exactly 1
    k = _flip_cell(excess, h, a, ga, g1, chord_first=trace_r > 1.0)
    return 0.5 * (k * h + (k + 1) * h)


def _state_blocks(
    states: Iterable[tuple[float, StateLike]], ps: list[float]
) -> Iterator[tuple[float, tuple, tuple[list, list, list]]]:
    """Each ``(param, state)`` pair as ``(param, (l, k, q1, q2), (norms,
    bounds, violated))``: the norm, bound and 0/1 verdict of
    :func:`spa_r_scores` at each p of ``ps``, three lists. Each state is
    scored first, before the next is drawn.

    ``ps`` is checked once, through ``spa.require_weights`` at the first
    state, so a p outside [0, 1] raises before that state's gate, q1, q2 and
    threshold, and a sweep of no states checks nothing. Each state is then
    scored in one pass (``criteria._spa_r_pass``), which runs its domain gate
    and makes its one SVD call: the p-grid, then R, whose singular values q1
    then reads. Norms, bounds and verdicts are array operations, the verdict
    by ``verdict_margin``, the margin of every :class:`Score`. q2 is
    :func:`criteria.q2_rmoment` for every 3x3 state, refused or not, with its
    own SVD of the state; it is None outside 3x3 systems.

    What cannot be computed is NaN rather than aborting the sweep: when the
    domain gate refuses the realigned trace, each norm and bound (so the
    verdict stays 0) and l and k, with no threshold run, and q1 takes its
    own SVD of R; l and k alone when the spectrum is not real.
    """
    nan = float("nan")
    weights = None  # ps as a checked array, once the first state is drawn
    for param, rho in states:
        r = as_realigned(rho)
        if weights is None:
            weights = np.array(spa.require_weights(ps))
        cells = [nan] * len(ps), [nan] * len(ps), [0] * len(ps)
        l = k = nan
        with contextlib.suppress(DomainError):  # what raises keeps its NaN
            norms, bounds = _spa_r_pass(r, weights)
            violated = verdict_margin(norms, bounds) > 0
            cells = norms.tolist(), bounds.tolist(), violated.view(np.int8).tolist()
            threshold = spa_threshold(r)  # only once the gate accepted the trace
            l, k = threshold.l, threshold.k
        q1 = q1_realignment_moments(r)
        q2 = q2_rmoment(r) if (r.dim_a, r.dim_b) == (3, 3) else None
        yield param, (l, k, q1, q2), cells


def sweep_rows(states: Iterable[tuple[float, StateLike]], ps: Iterable[float]) -> Iterator[dict]:
    """The sweep table of ``(param, state)`` pairs over a p-grid as
    :data:`SWEEP_COLUMNS` dicts: the rows :func:`sweep_csv` writes."""
    ps = list(ps)
    for param, columns, cells in _state_blocks(states, ps):
        for p, *cell in zip(ps, *cells):
            yield dict(zip(SWEEP_COLUMNS, (param, p, *cell, *columns)))


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
    for param, columns, (norms, bounds, violated) in _state_blocks(states, ps):
        head = _cell(param) + ","
        tail = "," + _line(columns)
        for p, norm, bound, v in zip(p_cells, norms, bounds, violated):
            lines.append(f"{head}{p},{norm!s},{bound!s},{v}{tail}")
    lines.append("")
    return "\n".join(lines)


def table1_rows() -> list[dict]:
    """Largest violating p for each alpha-state parameter in TABLE1_ALPHAS."""
    return [
        {"alpha": alpha, "p_max": violation_p_max(alpha_state(alpha))} for alpha in TABLE1_ALPHAS
    ]
