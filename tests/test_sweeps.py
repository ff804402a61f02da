"""Detection edges: violation_p_max against plain bisection, and tolerance checks;
the CSV writers against the standard library's csv.writer."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spar import (
    DEFAULT,
    DomainError,
    Score,
    Verdict,
    alpha_state,
    isotropic,
    q1_realignment_moments,
    q2_rmoment,
    random_density,
    random_schmidt_symmetric,
    realign,
    rho_a,
    rho_t,
    spa_r_verdict,
    validate_density,
)
import spar.linalg
import spar.spa
from spar import sweeps
from spar.criteria import spa_r_scores
from spar.states import RHO_T_MAX
from spar.sweeps import (
    SWEEP_COLUMNS,
    TABLE1_ALPHAS,
    bisect_boundary,
    csv_text,
    sweep_csv,
    sweep_rows,
    table1_rows,
    violation_p_max,
)

from util import count_spa_checks, csv_writer_text, family_pairs, sweep_reference, time_limit


def depolarized(rho, weight):
    n = rho.dim_a * rho.dim_b
    return validate_density((1 - weight) * rho.matrix + weight * np.eye(n) / n, (rho.dim_a, rho.dim_b))


EDGE_STATES = (
    [alpha_state(a) for a in TABLE1_ALPHAS]
    + [rho_t(float(t)) for t in np.linspace(-0.79, 0.79, 17)]
    + [rho_a(a) for a in (1 / math.sqrt(2) + 1e-6, 0.8, 0.9, 1.0)]
    + [isotropic(b, d) for d in range(2, 7) for b in (0.1, 0.5, 0.9)]
    + [depolarized(random_schmidt_symmetric(d, 3, seed=d), 0.3) for d in range(2, 6)]
)


def bisected_edge(rho, tol):
    """The detection edge by plain bisection of [0, 1]; None when undetected at p = 0."""
    r = realign(rho)

    def violated(p):
        return spa_r_verdict(r, p) == Verdict.ENTANGLED

    return bisect_boundary(violated, 0.0, 1.0, tol) if violated(0.0) else None


@pytest.mark.parametrize("tol", [1e-3, 1e-7, 1e-9])
def test_edge_equals_bisection_bit_for_bit(tol):
    edges = [violation_p_max(rho, tol) for rho in EDGE_STATES]
    assert edges == [bisected_edge(rho, tol) for rho in EDGE_STATES]
    # both detected and undetected states are covered
    assert 0 < edges.count(None) < len(edges) // 2


# the boundaries workload's inputs: each named family over its whole domain,
# isotropic states at d = 2..5
WORKLOAD_STATES = st.one_of(
    st.floats(-RHO_T_MAX, RHO_T_MAX).map(rho_t),
    st.floats(1 / math.sqrt(2), 1.0).map(rho_a),
    st.floats(0.0, 1.0).map(alpha_state),
    st.builds(isotropic, st.floats(0.0, 1.0), st.integers(2, 5)),
)


@settings(max_examples=30, deadline=None)  # one bisection takes about 27 probes
@given(WORKLOAD_STATES, st.sampled_from([1e-3, 1e-7]))
def test_edge_equals_bisection_on_workload_states(rho, tol):
    assert violation_p_max(rho, tol) == bisected_edge(rho, tol)


def bell_mixture(weight, d, seed):
    """weight |Phi+><Phi+| plus (1 - weight) a Ginibre draw: R is not Hermitian,
    and Tr R runs from that of the draw up to d."""
    m = weight * isotropic(1.0, d).matrix + (1 - weight) * random_density(d * d, seed=seed)
    return validate_density(m, (d, d))


BELL_MIXTURES = st.builds(bell_mixture, st.floats(0.0, 1.0), st.integers(2, 4),
                          st.integers(0, 2**16))
TRACE_SIDES = {
    "below_one": BELL_MIXTURES.filter(lambda rho: 0 < realign(rho).moment(1) < 1),
    "above_one": BELL_MIXTURES.filter(lambda rho: realign(rho).moment(1) > 1),
}


@pytest.mark.parametrize("side", TRACE_SIDES)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), tol=st.sampled_from([1e-3, 1e-7]))
def test_edge_equals_bisection_on_either_side_of_unit_trace(side, data, tol):
    # the first probe follows Tr R; the cell does not
    rho = data.draw(TRACE_SIDES[side])
    assert violation_p_max(rho, tol) == bisected_edge(rho, tol)


@pytest.mark.parametrize("rho", [
    rho_t(0.0), rho_t(0.1), isotropic(0.2), isotropic(0.1, 5), alpha_state(0.0),
    depolarized(random_schmidt_symmetric(3, 3, seed=3), 0.3),
], ids=repr)
def test_undetected_state_has_no_edge(rho):
    assert spa_r_verdict(rho, 0.0) == Verdict.INCONCLUSIVE
    assert violation_p_max(rho) is None


def test_states_on_the_bound_get_no_violated_cell_and_no_edge(pure_products):
    # the sweep's violated column and the boundary search use the one margin
    rows = sweep_rows(((i, rho) for i, rho in enumerate(pure_products)), np.linspace(0, 1, 11))
    assert {row["violated"] for row in rows} == {0}
    assert all(violation_p_max(rho) is None for rho in pure_products)


def counting_probes(monkeypatch):
    """Record the weight of every probe that the sweeps module's boundary search makes."""
    calls = []
    prepare = sweeps._spa_r_probe

    def prepared(r):
        probe = prepare(r)

        def recorded(p):
            calls.append(p)
            return probe(p)

        return recorded

    monkeypatch.setattr(sweeps, "_spa_r_probe", prepared)
    return calls


def counting_calls(monkeypatch, module, *names):
    """Record the argument of every call of each named one-argument function of ``module``."""
    calls = {name: [] for name in names}
    for name in names:
        def recorded(m, _solve=getattr(module, name), _calls=calls[name]):
            _calls.append(m)
            return _solve(m)

        monkeypatch.setattr(module, name, recorded)
    return calls


SOLVERS = ("singular_values", "hermitian_eigenvalues", "general_eigenvalues")


@pytest.mark.parametrize("alpha", TABLE1_ALPHAS)
def test_table1_edge_takes_at_most_8_svd_probes(monkeypatch, alpha):
    probes = counting_probes(monkeypatch)
    calls = counting_calls(monkeypatch, spar.linalg, "singular_values")
    violation_p_max(alpha_state(alpha))
    assert 3 <= len(probes) <= 8  # bisection takes 27
    # one SVD of one SPA matrix per probe, none at p = 1
    assert len(calls["singular_values"]) == len(probes)
    assert all(m.shape == (9, 9) for m in calls["singular_values"])
    assert 1.0 not in probes


@pytest.mark.parametrize("rho", [rho_t(0.5), rho_a(0.8), isotropic(0.5), isotropic(0.9, 6)],
                         ids=repr)
def test_trace_above_one_with_the_edge_in_the_last_cell_takes_no_probe_and_calls_no_solver(
        monkeypatch, rho):
    # Tr R >= 1.0171: the trace bound (1 - p)(1 - 1/Tr R) - DEFAULT.verdict
    # alone shows the last interior grid point violated
    h = 2.0**-24  # the grid step of tol 1e-7
    r = realign(rho)
    assert r.spa_trace > 1
    probes = counting_probes(monkeypatch)
    calls = counting_calls(monkeypatch, spar.linalg, *SOLVERS)
    checks = counting_calls(monkeypatch, spar.spa, "require_real_spectrum")
    assert violation_p_max(r) == 1 - h / 2
    assert probes == []
    assert calls == {name: [] for name in SOLVERS}
    assert checks == {"require_real_spectrum": []}  # R - R^H is not even measured


def isotropic_with_trace(trace_r, d):
    """The isotropic state whose Tr R is ``trace_r``: Tr R = d beta + (1 - beta)/d."""
    return isotropic((trace_r - 1 / d) / (d - 1 / d), d)


# Tr R in (1, 1.017), where the trace bound opens the bracket below the last
# cell, and Tr R <= 1, where p = 0 is probed
@pytest.mark.parametrize("rho", [isotropic_with_trace(1.005, 3), isotropic_with_trace(1.01, 6),
                                 isotropic(0.1, 5), isotropic_with_trace(1.0, 2)], ids=repr)
def test_exactly_hermitian_r_is_searched_by_svd_probes_alone(monkeypatch, rho):
    r = realign(rho)
    probes = counting_probes(monkeypatch)
    calls = counting_calls(monkeypatch, spar.linalg, *SOLVERS)
    checks = counting_calls(monkeypatch, spar.spa, "require_real_spectrum")
    edge = violation_p_max(r)
    assert len(calls["singular_values"]) == len(probes) >= 1
    assert calls["hermitian_eigenvalues"] == calls["general_eigenvalues"] == []
    assert checks == {"require_real_spectrum": []}  # R - R^H is not even measured
    monkeypatch.undo()
    assert edge == bisected_edge(rho, 1e-7)


def rotated_bell_mixture(seed):
    """0.7 |Psi-><Psi-| + 0.3 |Phi+><Phi+| turned by U (x) conj(U), U a random
    unitary: detected at p = 0 with Tr R = 0.6, and its R is Hermitian only up
    to rounding (exactly, before the turn)."""
    psi_minus = np.array([0, 1, -1, 0]) / math.sqrt(2)
    m = 0.7 * np.outer(psi_minus, psi_minus) + 0.3 * isotropic(1.0, 2).matrix
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    w = np.kron(u, u.conj())
    return validate_density(w @ m @ w.conj().T, (2, 2))


# Tr R <= 1: the trace bound settles nothing, so p = 0 is probed
@pytest.mark.parametrize("rho", [rho_t(-0.6), bell_mixture(0.2, 3, 0), rotated_bell_mixture(0)],
                         ids=repr)
def test_any_other_r_keeps_its_svd_probes(monkeypatch, rho):
    r = realign(rho)
    assert r.spa_trace <= 1
    # about 4e-17 for the rotated Bell mixture
    assert 0 < np.linalg.norm(r.matrix - r.matrix.conj().T)
    probes = counting_probes(monkeypatch)
    calls = counting_calls(monkeypatch, spar.linalg, *SOLVERS)
    violation_p_max(r)
    # p = 0 and at least one interior point; p = 1 takes no probe
    assert len(calls["singular_values"]) == len(probes) >= 2
    assert calls["hermitian_eigenvalues"] == calls["general_eigenvalues"] == []


def schmidt_symmetric_mixture(weight, d, terms, seed):
    """weight |Phi+><Phi+| plus (1 - weight) a Schmidt-symmetric draw: still
    Schmidt-symmetric, so Tr R = ||R||_1, and R is PSD up to rounding."""
    m = weight * isotropic(1.0, d).matrix
    m += (1 - weight) * random_schmidt_symmetric(d, terms, seed=seed).matrix
    return validate_density(m, (d, d))


def trace_bound_settles(trace_r, p, n):
    """The trace bound alone shows p violated: (1 - p)(1 - 1/Tr R) > margin + s(n)."""
    return (1 - p) * (1 - 1 / trace_r) > DEFAULT.verdict + sweeps._rounding_slack(n)


TRACE_AT_LEAST_ONE = st.one_of(
    st.builds(bell_mixture, st.floats(0.0, 1.0), st.integers(2, 6), st.integers(0, 2**16)),
    st.builds(schmidt_symmetric_mixture, st.floats(0.0, 1.0), st.integers(2, 6),
              st.integers(1, 4), st.integers(0, 2**16)),
    st.integers(2, 6).flatmap(
        lambda d: st.floats(1.0, float(d)).map(lambda t: isotropic_with_trace(t, d))),
).filter(lambda rho: realign(rho).moment(1) >= 1)


@settings(max_examples=150, deadline=None)
@given(TRACE_AT_LEAST_ONE, st.floats(0.0, 1.0))
def test_computed_norms_keep_the_trace_bound_within_the_slack(rho, p):
    # ||SPA(p)||_1 >= |Tr SPA(p)| = 1; each computed norm is short of 1 by at
    # most s(n)/2, on the SVD probe buffer and the stacked SVD of spa_r_scores
    r = realign(rho)
    n = r.dim_a * r.dim_b
    trace_r = r.spa_trace
    # and at the largest p the trace bound settles, where it is tightest
    ps = [p]
    if trace_r > 1:
        tight = 1 - (DEFAULT.verdict + sweeps._rounding_slack(n)) / (1 - 1 / trace_r)
        while tight > 0 and not trace_bound_settles(trace_r, tight, n):
            tight = math.nextafter(tight, 0.0)
        ps += [tight] if tight > 0 else []
    probe = sweeps._spa_r_probe(r)
    for q in ps:
        for score in (probe(q), spa_r_scores(r, [q])[0]):
            assert score.value >= 1 - sweeps._rounding_slack(n) / 2
            if trace_bound_settles(trace_r, q, n):
                assert score.verdict == Verdict.ENTANGLED


def last_cell_trace(h, n):
    """The Tr R above which the trace bound settles the last cell of step h:
    h (1 - 1/Tr R) > margin + s(n)."""
    return 1 / (1 - (DEFAULT.verdict + sweeps._rounding_slack(n)) / h)


# isotropic states with (Tr R - 1) a thousandth below and above that of the
# last-cell threshold of tol 1e-3 (h = 2**-10) and of tol 1e-7 (h = 2**-24);
# at tol 1e-9 (h = 2**-30) the trace bound never settles the last cell
THRESHOLD_CASES = {f"{tol}-{side}-d{d}": (tol, side, isotropic_with_trace(
    1 + (last_cell_trace(h, d * d) - 1) * side, d))
    for tol, h in ((1e-3, 2.0**-10), (1e-7, 2.0**-24))
    for d in range(2, 7) for side in (0.999, 1.001)}


@pytest.mark.parametrize("case", THRESHOLD_CASES)
def test_last_cell_threshold_settles_the_edge_only_above_it(monkeypatch, case):
    tol, side, rho = THRESHOLD_CASES[case]
    probes = counting_probes(monkeypatch)
    violation_p_max(rho, tol)
    assert (probes == []) == (side > 1)
    monkeypatch.undo()
    for t in (1e-3, 1e-7, 1e-9):
        assert violation_p_max(rho, t) == bisected_edge(rho, t)


# at tol 1e-9 the excess of the d = 2 cases at tol 1e-3's threshold (Tr R - 1
# about 1.0e-6) moves by about 1e-15 a cell: they equal bisection only while
# each probe's norm is the double of the stacked SVD's
@pytest.mark.parametrize("case, tol", [
    (case, tol) for case in THRESHOLD_CASES for tol in (1e-3, 1e-7, 1e-9)])
def test_edge_at_the_last_cell_threshold_equals_bisection(case, tol):
    rho = THRESHOLD_CASES[case][2]
    assert violation_p_max(rho, tol) == bisected_edge(rho, tol)


@pytest.mark.parametrize("tol", [1e-7, 1e-9])
@pytest.mark.parametrize("trace_r", [1.001, 1.005, 1.01, 1.02])
@pytest.mark.parametrize("d", range(2, 7))
def test_trace_just_above_one_takes_at_most_two_probes(monkeypatch, d, trace_r, tol):
    # the bracket opens at the trace bound; from p = 0 these took 2 to 6
    # probes at tol 1e-7 and 3 to 7 at tol 1e-9
    rho = isotropic_with_trace(trace_r, d)
    probes = counting_probes(monkeypatch)
    edge = violation_p_max(rho, tol)
    assert len(probes) <= 2
    monkeypatch.undo()
    assert edge == bisected_edge(rho, tol)


# the probes of all EDGE_STATES searches at tol 1e-7, each one SVD (156 probes
# before the trace bound settled or opened the search)
EDGE_PROBE_BUDGET = 114


def test_edge_states_stay_within_the_probe_budget(monkeypatch):
    probes = counting_probes(monkeypatch)
    calls = counting_calls(monkeypatch, spar.linalg, *SOLVERS)
    for rho in EDGE_STATES:
        violation_p_max(rho)
    assert len(calls["singular_values"]) == len(probes) <= EDGE_PROBE_BUDGET
    assert calls["hermitian_eigenvalues"] == calls["general_eigenvalues"] == []


def fake_excess(monkeypatch, norm):
    """Replace the probe's score by norm(p) against the bound 0.0, and record the probed p.

    The excess is then norm(p) - DEFAULT.verdict; returns the probes and the
    matching predicate for bisect_boundary. Each norm(1) here is below 1, so
    the predicate agrees at p = 1 with the closed form the search takes there.
    """
    probes = []

    def probe(p):
        probes.append(p)
        return Score(norm(p), 0.0)

    monkeypatch.setattr(sweeps, "_spa_r_probe", lambda r: probe)
    return probes, lambda p: norm(p) > 0.0 + DEFAULT.verdict


def test_non_finite_root_takes_a_bisection_step(monkeypatch):
    # an infinite excess at p = 0 makes the first chord root NaN
    probes, violated = fake_excess(monkeypatch, lambda p: math.inf if p == 0 else 0.3 - p)
    edge = violation_p_max(alpha_state(0.5))
    assert probes[:2] == [0.0, 0.5]
    assert edge == bisect_boundary(violated, 0.0, 1.0, 1e-7)


@pytest.mark.parametrize("shape", ["concave", "wiggly"])
@pytest.mark.parametrize("edge", [1e-6, 0.02, 0.3, 0.7, 0.99])
@pytest.mark.parametrize("tol", [1e-3, 1e-7, 1e-9])
def test_excess_that_is_not_convex_still_gives_the_bisection_cell(monkeypatch, shape, edge, tol):
    # one sign change at the edge; secant and chord roots are not bounds here
    def norm(p):
        if shape == "concave":
            return edge * edge - p * p + DEFAULT.verdict
        return (edge - p) * (1.2 + math.sin(40 * p)) + DEFAULT.verdict

    probes, violated = fake_excess(monkeypatch, norm)
    assert violation_p_max(alpha_state(0.5), tol) == bisect_boundary(violated, 0.0, 1.0, tol)
    assert len(probes) <= 1 + sweeps._SECANT_STEPS + 52


def test_capped_search_probes_the_bisection_points(monkeypatch):
    # with no secant steps allowed the search is plain bisection on the grid,
    # but for p = 1, which takes no probe
    calls = counting_probes(monkeypatch)
    monkeypatch.setattr(sweeps, "_SECANT_STEPS", 0)
    rho = alpha_state(0.5)
    edge = violation_p_max(rho)
    r = realign(rho)
    bisected = []

    def violated(p):
        bisected.append(p)
        return spa_r_verdict(r, p) == Verdict.ENTANGLED

    assert edge == bisect_boundary(violated, 0.0, 1.0, 1e-7)
    assert bisected[1] == 1.0
    assert calls == bisected[:1] + bisected[2:]


BAD_TOLERANCES = [0.0, -1e-7, math.nan, math.inf]
BAD_IDS = ["zero", "negative", "nan", "inf"]


@pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=BAD_IDS)
def test_violation_p_max_rejects_a_tolerance_that_cannot_end(tol):
    with time_limit(10), pytest.raises(ValueError, match="tol must be finite and > 0"):
        violation_p_max(alpha_state(0.5), tol=tol)


@pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=BAD_IDS)
def test_bisect_boundary_rejects_a_tolerance_that_cannot_end(tol):
    with time_limit(10), pytest.raises(ValueError, match="tol must be finite and > 0"):
        bisect_boundary(lambda p: p < 0.3, 0.0, 1.0, tol=tol)


@pytest.mark.parametrize("value", [True, False])
def test_bisect_boundary_refuses_a_predicate_that_does_not_change(value):
    with pytest.raises(ValueError, match=r"^predicate does not change between 0\.0 and 1\.0$"):
        bisect_boundary(lambda p: value, 0.0, 1.0)


def test_family_state_refuses_an_unknown_family():
    message = "unknown family 'nope'; choose from ['alpha_state', 'isotropic', 'rho_a', 'rho_t']"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sweeps.family_state("nope", 0.5)


def test_tolerance_below_double_spacing_raises():
    with time_limit(10):
        with pytest.raises(ValueError, match="below the double spacing"):
            violation_p_max(alpha_state(0.5), tol=1e-17)
        with pytest.raises(ValueError, match="below the double spacing"):
            bisect_boundary(lambda p: p < 0.3, 0.0, 1.0, tol=1e-300)


def test_coarse_tolerance_gives_the_midpoint():
    # bisection of [0, 1] stops at once for tol >= 1
    assert violation_p_max(alpha_state(0.5), tol=1.0) == 0.5 == violation_p_max(alpha_state(0.5), 3.0)


# the CSV writers: the bytes of csv.writer, case by case

SWEEP_GRIDS = {
    # the CLI's grids are lists of Python floats; -0.0 is written as such
    "rho_t": [-0.79, -0.7, -0.0, 0.0, 0.1161, 0.3, 0.79],
    "rho_a": [1 / math.sqrt(2) + 1e-6, 0.8, 1.0],
    "isotropic": [-0.1, 0.0, 0.25, 0.9, 1.0],
    "alpha_state": list(TABLE1_ALPHAS) + [0.0, 1.0],
}


SWEEP_PS = [0.0, 0.05, 1 / 3, 0.5, 0.99, 1.0]
SWEEP_CASES = [(family, params, SWEEP_PS) for family, params in sorted(SWEEP_GRIDS.items())] + [
    # spar sweep --family isotropic --param-range=-0.125:1:5 --p-range=0:1:3:
    # isotropic(-1/8) has Tr R = 0 up to rounding
    ("isotropic", [-0.125, 0.15625, 0.4375, 0.71875, 1.0], [0.0, 0.5, 1.0]),
]


@pytest.mark.parametrize("family,params,ps", SWEEP_CASES,
                         ids=[*sorted(SWEEP_GRIDS), "isotropic_trace_zero"])
def test_sweep_csv_writes_the_bytes_of_csv_text(family, params, ps):
    text = sweep_csv(iter(family_pairs(family, params)), ps)
    assert text == sweep_reference(family, params, ps)


def test_a_state_without_positive_realigned_trace_gets_nan_rows():
    rho, ps = isotropic(-0.125), [0.0, 0.5, 1.0]
    with pytest.raises(DomainError, match="realigned trace .* is not positive"):
        spa_r_scores(rho, ps)
    rows = list(sweep_rows([(-0.125, rho)], ps))
    assert [row["p"] for row in rows] == ps
    for row in rows:
        assert all(math.isnan(row[c]) for c in ("traceNormSpaR", "upperBound", "l", "k"))
        assert row["violated"] == 0
        assert row["q1"] == q1_realignment_moments(rho) and row["q2"] == q2_rmoment(rho)
    with pytest.raises(ValueError, match=re.escape("p must lie in [0, 1], got 2.0")):
        list(sweep_rows([(-0.125, rho)], [0.0, 2.0]))


def test_a_sweep_checks_its_grid_once_and_gates_each_state_once(monkeypatch):
    gates, weights = count_spa_checks(monkeypatch)
    ps = [i / 100 for i in range(101)]
    # isotropic(-0.125) is refused by the gate, the others are scored
    params = [-0.125, 0.5, 0.6]
    text = sweep_csv(family_pairs("isotropic", params), ps)
    assert (len(gates), weights) == (3, [ps])
    assert text == sweep_reference("isotropic", params, ps)
    gates.clear()
    weights.clear()
    # a p outside [0, 1] raises before the first state's gate; no state, no check
    with pytest.raises(ValueError, match=re.escape("p must lie in [0, 1], got 2.0")):
        sweep_csv(family_pairs("isotropic", params), [0.5, 2.0])
    assert sweep_csv([], [2.0]) == ",".join(SWEEP_COLUMNS) + "\n"
    assert (gates, weights) == ([], [[0.5, 2.0]])


@pytest.mark.parametrize("family,lo,hi", [
    ("rho_t", -0.79, -0.60), ("rho_t", 0.10, 0.79), ("rho_a", 1 / math.sqrt(2) + 1e-6, 1.0),
    ("isotropic", 0.0, 1.0), ("alpha_state", 0.05, 0.95),
])
def test_sweep_csv_formats_numpy_floats_as_csv_does(family, lo, hi):
    # the reproduce script's grids: np.float64, whose repr is not its str
    params, ps = np.linspace(lo, hi, 7), np.linspace(0.0, 1.0, 21)
    text = sweep_csv(family_pairs(family, params), ps)
    assert text == sweep_reference(family, params, ps)
    assert "np.float64" not in text


def test_sweep_csv_of_a_two_qubit_state_leaves_q2_empty():
    text = sweep_csv([(0.3, rho_t(0.3))], [0.0, 1.0])
    assert text == sweep_reference("rho_t", [0.3], [0.0, 1.0])
    assert all(line.endswith(",") for line in text.splitlines()[1:])


def test_sweep_csv_writes_nan_for_a_complex_realigned_spectrum():
    rho = validate_density(random_density(9, seed=3), (3, 3))
    ps = [0.0, 0.4, 1.0]
    text = sweep_csv([(7, rho)], ps)
    assert text == csv_writer_text(sweep_rows([(7, rho)], ps), SWEEP_COLUMNS)
    assert all(line.split(",")[5:7] == ["nan", "nan"] for line in text.splitlines()[1:])


def test_sweep_csv_of_an_empty_grid_is_the_header():
    states = family_pairs("alpha_state", [0.2, 0.4])
    header = ",".join(SWEEP_COLUMNS) + "\n"
    assert sweep_csv(states, []) == sweep_reference("alpha_state", [0.2, 0.4], [])
    assert sweep_csv([], [0.5]) == header == csv_writer_text([], SWEEP_COLUMNS)


def test_table1_csv_is_the_bytes_of_csv_writer():
    rows = table1_rows()
    assert csv_text(rows, ["alpha", "p_max"]) == csv_writer_text(rows, ["alpha", "p_max"])


CSV_TABLES = {
    "mixed": ([
        {"name": "rho_t onset at p=0", "value": 0.11611652351681556, "ref": None},
        {"name": "a", "value": -0.0, "ref": np.float64(1 / 3)},
        {"name": "", "value": 7, "ref": True},
        {"name": "nan", "value": math.nan, "ref": math.inf},
    ], ["name", "value", "ref"]),
    "one column": ([{"x": 1.5}, {"x": "a b"}], ["x"]),
    "no rows": ([], ["alpha", "p_max"]),
}


@pytest.mark.parametrize("rows,columns", CSV_TABLES.values(), ids=CSV_TABLES)
def test_csv_text_writes_the_bytes_of_csv_writer(rows, columns):
    assert csv_text(rows, columns) == csv_writer_text(rows, columns)


@pytest.mark.parametrize("cell", ["a,b", 'say "x"', "two\nlines", "cr\rlf", ","])
def test_csv_text_refuses_a_cell_that_needs_quoting(cell):
    with pytest.raises(ValueError, match="would need quoting"):
        csv_text([{"name": cell, "value": 1.0}], ["name", "value"])
    with pytest.raises(ValueError, match="would need quoting"):
        csv_text([], ["value", cell])


@pytest.mark.parametrize("empty", [None, ""])
def test_csv_text_refuses_a_lone_empty_cell(empty):
    # csv.writer writes it as "", so that the row is not a blank line
    assert csv_writer_text([{"x": empty}], ["x"]) == 'x\n""\n'
    with pytest.raises(ValueError, match="would need quoting"):
        csv_text([{"x": empty}], ["x"])
