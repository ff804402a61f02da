import contextlib
import dataclasses
import re

import numpy as np
import pytest

from spar import (
    DEFAULT,
    DomainError,
    Verdict,
    alpha_state,
    apply_spa,
    criterion_report,
    error_suite,
    isotropic,
    q1_realignment_moments,
    q2_rmoment,
    random_density,
    random_schmidt_symmetric,
    random_separable,
    realign,
    realignment_criterion,
    rho_a,
    rho_t,
    spa_r_upper_bound,
    spa_r_verdict,
    spa_threshold,
    validate_density,
)
from spar import linalg
from spar.criteria import _spa_r_probe, spa_r_scores
from spar.realign import Score, verdict_margin
from spar.sweeps import _rounding_slack, bisect_boundary, family_state, sweep_rows, violation_p_max

from util import family_pairs, trace_norm


def mm_state(d=2):
    return validate_density(np.eye(d * d) / (d * d), (d, d))


class TestUpperBound:
    def test_unit_trace_gives_one_for_all_p(self):
        for p in (0.0, 0.37, 1.0):
            assert spa_r_upper_bound(1.0, p) == 1.0

    def test_p_one_gives_exactly_one(self):
        for trace_r in (0.175, 0.5, 1.375, 3.0):
            assert spa_r_upper_bound(trace_r, 1.0) == 1.0

    def test_no_mixing(self):
        assert spa_r_upper_bound(0.5, 0.0) == pytest.approx(2.0)

    def test_affine_in_p(self):
        tr = 0.6
        b0, b1 = spa_r_upper_bound(tr, 0.0), spa_r_upper_bound(tr, 1.0)
        for p in (0.25, 0.5, 0.75):
            assert spa_r_upper_bound(tr, p) == pytest.approx(b0 + (b1 - b0) * p, abs=1e-15)

    def test_rejects_nonpositive_trace(self):
        with pytest.raises(ValueError):
            spa_r_upper_bound(0.0, 0.5)


class TestSpaRVerdict:
    def test_isotropic_detected(self):
        assert spa_r_verdict(isotropic(0.9), 0.5) == Verdict.ENTANGLED

    def test_rho_t_detected(self):
        assert spa_r_verdict(rho_t(0.5), 0.7) == Verdict.ENTANGLED

    def test_alpha_state_window_closed(self):
        assert spa_r_verdict(alpha_state(0.5), 0.05) == Verdict.INCONCLUSIVE

    def test_alpha_state_window_open(self):
        assert spa_r_verdict(alpha_state(0.5), 0.01) == Verdict.ENTANGLED

    def test_full_depolarization_is_blind(self):
        # at p = 1 the bound is saturated for every state: never a detection
        for rho in (rho_t(0.5), isotropic(0.9), alpha_state(0.5)):
            assert spa_r_verdict(rho, 1.0) == Verdict.INCONCLUSIVE

    def test_npt_qutrit_family_detected_across_physical_window(self):
        from spar import rho_a, spa_threshold

        for a in (0.72, 0.85, 1.0):
            rho = rho_a(a)
            l = spa_threshold(rho).l
            for p in (l, (l + 1) / 2, 0.97):
                assert spa_r_verdict(rho, p) == Verdict.ENTANGLED

    def test_separable_states_stay_inconclusive(self, separable_22, separable_33, pure_products):
        for rho in separable_22[:60] + separable_33[:60]:
            for p in (0.0, 0.3, 0.7, 1.0):
                assert spa_r_verdict(rho, p) == Verdict.INCONCLUSIVE
        # on the bound itself: without the verdict margin rounding calls 112
        # of these ENTANGLED by realignment and 181 by SPA-R on this grid
        ps = np.linspace(0.0, 1.0, 11)
        for rho in pure_products:
            assert realignment_criterion(rho).verdict == Verdict.INCONCLUSIVE
            assert {score.verdict for score in spa_r_scores(rho, ps)} == {Verdict.INCONCLUSIVE}


def test_report_on_the_bound_is_inconclusive(pure_products):
    # the report's verdicts follow the one margin of realignment_criterion
    # and spa_r_scores; the error verdict is read only inside its window
    for rho in pure_products:
        for p in (0.0, 0.5, 1.0):
            rep = criterion_report(rho, p)
            assert rep.realignment.verdict == rep.spa_r.verdict == Verdict.INCONCLUSIVE
            assert not rep.error.bound_valid or rep.error.score.verdict == Verdict.INCONCLUSIVE


class TestSchmidtSymmetricEquivalence:
    def test_verdict_matches_plain_realignment(self, schmidt_symmetric_states):
        # below full depolarization the SPA verdict carries exactly the
        # realignment information for these states
        for rho in schmidt_symmetric_states[:30]:
            want = realignment_criterion(rho).verdict
            for p in (0.0, 0.25, 0.5, 0.75, 0.9):
                assert spa_r_verdict(rho, p) == want


class TestErrorSuite:
    def test_full_depolarization_limit(self):
        rho = rho_t(0.3)
        r = realign(rho)
        rep = error_suite(rho, 1.0)
        n = rho.dim_a ** 2
        assert rep.score.value == pytest.approx(
            trace_norm(np.eye(n) / n - r.matrix), abs=1e-12
        )
        assert rep.score.bound == 0.0
        assert not rep.bound_valid

    def test_separable_bound_inside_validity_window(self, separable_22):
        for rho in separable_22[:40]:
            trace_r = realign(rho).moment(1)
            for frac in (0.0, 0.5, 1.0):
                p = frac * (1 - trace_r)
                rep = error_suite(rho, p)
                assert rep.bound_valid
                assert rep.score.value <= rep.score.bound + 1e-9
                assert rep.score.verdict == Verdict.INCONCLUSIVE

    def test_general_bound_inside_validity_window(self, separable_22, separable_33):
        for rho in separable_22[:20] + separable_33[:20]:
            trace_r = realign(rho).moment(1)
            rep = error_suite(rho, 0.5 * (1 - trace_r))
            assert rep.score.value <= rep.bound_general + 1e-9

    def test_bounds_fail_outside_window_even_for_separable_states(self):
        # the maximally mixed state violates both bounds at p = 0.8,
        # which is why the verdict is gated by bound_valid
        rep = error_suite(mm_state(), 0.8)
        assert not rep.bound_valid
        assert rep.score.value == pytest.approx(0.7, abs=1e-12)
        assert rep.score.value > rep.bound_general
        assert rep.score.value > rep.score.bound

    def test_validity_window_takes_the_verdict_margin_as_slack(self):
        # Tr R = 1/2 exactly, so the window is p <= 1/2 + DEFAULT.verdict
        assert realign(mm_state()).moment(1) == 0.5
        assert error_suite(mm_state(), 0.5 + DEFAULT.verdict).bound_valid
        assert not error_suite(mm_state(), 0.5 + 2 * DEFAULT.verdict).bound_valid

    def test_mm_state_bound_is_tight_at_window_edge(self):
        rho = mm_state()
        trace_r = realign(rho).moment(1)  # 1/2
        rep = error_suite(rho, 1 - trace_r)
        assert rep.score.value == pytest.approx(rep.score.bound, abs=1e-12)


class TestQ1:
    def test_alpha_family_undetected(self):
        for a in np.arange(0.05, 0.96, 0.05):
            assert q1_realignment_moments(alpha_state(a)) <= 0

    def test_rho_t_detected_at_large_t(self):
        assert q1_realignment_moments(rho_t(0.5)) > 0

    def test_maximally_mixed_value(self):
        assert q1_realignment_moments(mm_state()) == pytest.approx((1 / 4) ** 2 - 1 / 8, abs=1e-12)


def hesse_sic():
    """The nine vectors X^a Z^b (0, 1, -1)/sqrt(2), a, b in {0, 1, 2}: X the
    cyclic shift and Z = diag(1, w, w^2), w = exp(2 pi i/3)."""
    shift = np.roll(np.eye(3), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    fiducial = np.array([0.0, 1.0, -1.0]) / np.sqrt(2)
    power = np.linalg.matrix_power
    return [power(shift, a) @ power(clock, b) @ fiducial for a in range(3) for b in range(3)]


def sic_products():
    """The nine products P_k (x) conj(P_k), P_k = |v_k><v_k| over :func:`hesse_sic`."""
    projectors = [np.outer(v, v.conj()) for v in hesse_sic()]
    return [np.kron(proj, proj.conj()) for proj in projectors]


# separable states with q2 > 0, each with the q2 it reads
Q2_SEPARABLE = [
    pytest.param(lambda: mm_state(3), 0.024691358024691246, id="I/9"),
    pytest.param(lambda: validate_density(sum(sic_products()) / 9, (3, 3)),
                 0.5499719409228689, id="sic_mixture"),
]


class TestQ2:
    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 19, Defect E: q2 is positive on separable states, so "
        "it certifies nothing",
    )
    @pytest.mark.parametrize("make,q2", Q2_SEPARABLE)
    def test_separable_states_undetected(self, make, q2):
        assert q2_rmoment(make()) <= 0

    def test_sic_mixture_is_separable_and_q2_reads_positive(self):
        vectors = hesse_sic()
        overlaps = [abs(np.vdot(u, v)) ** 2 for i, u in enumerate(vectors)
                    for v in vectors[i + 1:]]
        assert overlaps == pytest.approx([0.25] * 36, abs=1e-15)
        products = sic_products()
        rho = validate_density(sum(products) / 9, (3, 3))
        assert np.allclose(rho.matrix, np.mean(products, axis=0), rtol=0, atol=1e-15)
        # neither state is detected by realignment: ||R||_1 = 1/3 and 1 - 6e-16
        norms = []
        for make, q2 in (param.values for param in Q2_SEPARABLE):
            state = make()
            score = realignment_criterion(state)
            assert score.verdict == Verdict.INCONCLUSIVE
            norms.append(score.value)
            assert q2_rmoment(state) == pytest.approx(q2, abs=1e-12)
        assert norms == pytest.approx([1 / 3, 1.0], abs=1e-15)

    def test_alpha_family_undetected(self):
        for a in np.arange(0.05, 0.96, 0.05):
            assert q2_rmoment(alpha_state(a)) <= 0

    @pytest.mark.xfail(
        strict=True,
        reason="alpha_state has rank 7, so its eighth singular value is rounding "
        "noise (~1e-17); 56 D_8^(1/8) grows like its fourth root and turns it into "
        "a term of ~1e-4, above the exact q2 = Tr R - 1 <= 0",
    )
    @pytest.mark.parametrize("a", [0.999, 0.9999, 1.0])
    def test_alpha_family_undetected_near_a_one(self, a):
        assert q2_rmoment(alpha_state(a)) <= 0

    def test_pure_product_state_sits_on_the_boundary(self):
        rho = validate_density(np.diag([1.0] + [0.0] * 8), (3, 3))
        assert q2_rmoment(rho) == pytest.approx(0.0, abs=1e-12)

    def test_isotropic_detected(self):
        assert q2_rmoment(isotropic(0.9)) > 0

    def test_rejects_wrong_dimensions(self):
        with pytest.raises(ValueError):
            q2_rmoment(rho_t(0.3))


class TestCriterionReport:
    def test_report_fields_are_consistent(self):
        rho = alpha_state(0.5)
        rep = criterion_report(rho, 0.01)
        assert rep.p == 0.01
        assert rep.trace_r == pytest.approx(realign(rho).moment(1), abs=1e-14)
        assert rep.spa_r.verdict == Verdict.ENTANGLED
        assert (rep.spa_r.value > rep.spa_r.bound) == (
            rep.spa_r.verdict == Verdict.ENTANGLED
        )
        assert rep.q2 is not None

    def test_q2_absent_outside_qutrits(self):
        assert criterion_report(rho_t(0.2), 0.1).q2 is None


SHARED_ANALYSIS_CASES = [
    (rho_t(-0.7), 0.4),
    (rho_t(0.3), 0.0),
    (isotropic(0.6), 0.2),
    (isotropic(0.9, 4), 0.5),
    (alpha_state(0.5), 0.01),
]


class TestSharedAnalysis:
    @pytest.mark.parametrize("rho,p", SHARED_ANALYSIS_CASES)
    def test_report_from_realigned_matrix_equals_report_from_state(self, rho, p):
        from_state = dataclasses.asdict(criterion_report(rho, p))
        from_realigned = dataclasses.asdict(criterion_report(realign(rho), p))
        assert from_realigned == from_state

    @pytest.mark.parametrize("rho,p", SHARED_ANALYSIS_CASES)
    def test_violation_p_max_from_realigned_matrix(self, rho, p):
        assert violation_p_max(realign(rho)) == violation_p_max(rho)


# p-grid with both zeros, the end point, off-grid weights and a float32 weight,
# which is scored as its double: in float32 its bound is about 5e-8 off and the
# verdict of rho_t(-0.7412820512820513) there flips to ENTANGLED
P_GRID = [-0.0, 0.0, 1.0] + np.linspace(0.0, 1.0, 41).tolist() + [
    1e-12, 0.123456789, 1 - 1e-12, np.float32(0.8232569098472595)]

GRID_STATES = (
    [rho_t(t) for t in (-0.79, -0.6, 0.0, 0.11, 0.3, 0.79)]
    + [rho_a(a) for a in (1 / 2**0.5, 0.8, 1.0)]
    + [isotropic(b, d) for d in range(2, 7) for b in (-1 / (d * d - 1) + 1e-3, 0.2, 0.9)]
    + [alpha_state(a) for a in (0.0, 0.3, 0.7, 1.0)]
    + [random_schmidt_symmetric(d, 3, seed=d) for d in range(2, 6)]
    + [rho_t(-0.7412820512820513)]  # the state whose verdict the float32 weight flipped
)


def per_cell_norm(r, p):
    """||spa(rho; p)||_1 from one SPA matrix and one SVD for the double of p alone."""
    p, n = float(p), r.dim_a * r.dim_b
    spa = (p / n) * np.eye(n, dtype=np.complex128) + ((1.0 - p) / r.moment(1)) * r.matrix
    return float(np.sum(np.linalg.svd(spa, compute_uv=False)))


def svd_norm(m):
    """||m||_1 from one SVD of m alone."""
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


class TestStackedReport:
    @pytest.mark.parametrize("rho", GRID_STATES, ids=repr)
    def test_one_stacked_svd_gives_the_doubles_of_separate_ones(self, rho):
        for p in (0.0, 0.3, 1.0, np.float32(0.1)):
            report = criterion_report(rho, p)
            assert type(report.spa_r.bound) is float
            r = realign(rho)
            spa = apply_spa(r, p)
            assert report.realignment.value == svd_norm(r.matrix) == r.trace_norm
            assert report.spa_r.value == svd_norm(spa)
            assert report.error.score.value == svd_norm(spa - r.matrix)
            assert report.error == error_suite(realign(rho), p)
            assert report.q1 == q1_realignment_moments(realign(rho))
            assert report.q2 == (q2_rmoment(r) if rho.dim == 9 else None)

    def test_caches_r_singular_values(self):
        r = realign(alpha_state(0.4))
        criterion_report(r, 0.2)
        assert np.array_equal(r.singular_values, np.linalg.svd(r.matrix, compute_uv=False))


class TestSpaRScores:
    @pytest.mark.parametrize("rho", GRID_STATES, ids=repr)
    def test_grid_equals_per_p_scores(self, rho):
        r = realign(rho)
        scores = spa_r_scores(r, P_GRID)
        assert scores == [spa_r_scores(r, [p])[0] for p in P_GRID]
        assert [score.value for score in scores] == [per_cell_norm(r, p) for p in P_GRID]
        bounds = [spa_r_upper_bound(r.moment(1), float(p)) for p in P_GRID]
        assert [score.bound for score in scores] == bounds

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_p_outside_unit_interval_raises_with_the_first_offender(self, bad):
        message = f"p must lie in [0, 1], got {bad}"
        with pytest.raises(ValueError, match=re.escape(message)):
            spa_r_scores(rho_t(0.3), [0.0, 0.5, bad, 2.0])

    def test_empty_grid_scores_nothing(self):
        assert spa_r_scores(rho_t(0.3), []) == []


EPS = np.finfo(float).eps


def ginibre_state(d=3, seed=3):
    """A Ginibre draw: its R is far from Hermitian and has a complex spectrum."""
    return validate_density(random_density(d * d, seed=seed), (d, d))


class TestProbe:
    @pytest.mark.parametrize("rho", [
        rho_t(-0.6), rho_t(0.5), rho_a(0.8), alpha_state(0.3), ginibre_state(),
        random_schmidt_symmetric(3, 3, seed=5), isotropic(0.3), isotropic(0.05, 5),
        isotropic(0.9, 6),
    ], ids=repr)
    def test_svd_probe_gives_the_double_of_the_scorer(self, rho):
        # the buffer refilled in place holds the slice _mixture builds, for
        # an exactly Hermitian R (isotropic) as for any other
        r = realign(rho)
        probe = _spa_r_probe(r)
        for p in np.linspace(0.0, 1.0, 257).tolist():
            assert Score(probe(p), spa_r_upper_bound(r.spa_trace, p)) == spa_r_scores(r, [p])[0]

    def test_probe_reads_tr_r_through_the_domain_gate(self):
        # isotropic(-1/8) has Tr R = 0 up to rounding
        with pytest.raises(DomainError, match="is not positive"):
            _spa_r_probe(realign(isotropic(-1 / 8)))

    @pytest.mark.parametrize("d", range(2, 7))
    def test_score_at_one_is_the_svds_within_n_eps(self, d):
        n = d * d
        states = [isotropic(0.5, d), isotropic(0.05, d), random_separable(d, d, 3, seed=d),
                  random_schmidt_symmetric(d, 3, seed=d), ginibre_state(d, seed=1)]
        for r in map(realign, states):
            # the boundary search's constant excess at p = 1
            closed = Score(1.0, spa_r_upper_bound(r.spa_trace, 1.0))
            assert closed.margin == verdict_margin(1.0, 1.0)
            [svd] = spa_r_scores(r, [1.0])
            assert closed.bound == svd.bound == 1.0
            assert closed.verdict == svd.verdict == Verdict.INCONCLUSIVE
            assert abs(closed.value - svd.value) <= n * EPS


def defect_d_state():
    """w rho_t(-0.7) + (1 - w) I/4 with w bisected so that ||R||_1 - 1 is 5e-10,
    half the verdict margin (w = 0.46281, Tr R = 0.3496): realignment is
    inconclusive, while SPA-R at p = 0 weighs that excess by 1/Tr R."""
    def mixed(w):
        return validate_density(w * rho_t(-0.7).matrix + (1 - w) * np.eye(4) / 4, (2, 2))

    w = bisect_boundary(lambda w: realign(mixed(w)).trace_norm - 1 > 5e-10, 0.3, 0.6, tol=1e-15)
    return mixed(w)


class TestSpaRWithinRealignment:
    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 15, Defect D: SPA-R at p = 0 is realignment with the "
        "margin scaled by Tr R, so for Tr R < 1 it says entangled where realignment, "
        "on the same ||R||_1, is inconclusive",
    )
    def test_spa_r_detection_implies_realignment_detection(self):
        r = realign(defect_d_state())
        assert spa_r_verdict(r, 0.0) == Verdict.ENTANGLED
        assert realignment_criterion(r).verdict == Verdict.ENTANGLED

    def test_defect_d_state_sits_inside_the_margin(self):
        r = realign(defect_d_state())
        assert r.trace_norm - 1 == pytest.approx(5e-10, abs=1e-12)
        assert r.moment(1) == pytest.approx(0.3496, abs=1e-4)
        assert realignment_criterion(r).verdict == Verdict.INCONCLUSIVE
        [score] = spa_r_scores(r, [0.0])
        assert score.margin == pytest.approx(4.3e-10, abs=1e-11)

    @pytest.mark.parametrize("rho", [defect_d_state(), *GRID_STATES] + [
        ginibre_state(d, seed) for d in range(2, 5) for seed in (1, 2)], ids=repr)
    def test_spa_norm_keeps_the_triangle_inequality(self, rho):
        # ||SPA(p)||_1 <= p + (1 - p) ||R||_1 / Tr R: the mechanism that ties
        # SPA-R to realignment, up to the rounding slack s(n) relative to that
        # bound, which is at least 1 and near 1 / Tr R for a small Tr R
        r = realign(rho)
        slack = _rounding_slack(r.dim_a * r.dim_b)
        ps = np.linspace(0.0, 1.0, 21).tolist()
        for p, score in zip(ps, spa_r_scores(r, ps)):
            assert score.value <= (p + (1 - p) * r.trace_norm / r.moment(1)) * (1 + slack)


def counting_svds(monkeypatch) -> list:
    """Record the shape of the input of every ``linalg.singular_values`` call."""
    calls = []
    svd = linalg.singular_values

    def singular_values(m):
        calls.append(np.shape(m))
        return svd(m)

    monkeypatch.setattr(linalg, "singular_values", singular_values)
    return calls


def cell_by_cell_row(param, rho, p):
    """One sweep row by the per-cell path, with NaN for what raises DomainError:
    a fresh analysis for each of the score, the threshold, q1 and q2."""
    nan = float("nan")
    score, l, k = Score(nan, nan), nan, nan
    with contextlib.suppress(DomainError):
        [score] = spa_r_scores(realign(rho), [p])
    with contextlib.suppress(DomainError):
        threshold = spa_threshold(realign(rho))
        l, k = threshold.l, threshold.k
    q2 = q2_rmoment(realign(rho)) if rho.dim == 9 else None
    return (param, p, score.value, score.bound, int(score.verdict == Verdict.ENTANGLED), l, k,
            q1_realignment_moments(realign(rho)), q2)

class TestSweepRows:
    @pytest.mark.parametrize("family,params", [
        ("rho_t", [-0.7, 0.05, 0.4]),
        ("rho_a", [0.75, 1.0]),
        ("isotropic", [0.0, 0.3, 0.95]),
        ("alpha_state", [0.2, 0.8]),
    ])
    def test_rows_equal_per_cell_scores(self, family, params):
        rows = list(sweep_rows(family_pairs(family, params), P_GRID))
        assert [(row["param"], row["p"]) for row in rows] == [
            (param, p) for param in params for p in P_GRID
        ]
        for row in rows:
            r = realign(family_state(family, row["param"]))
            [score] = spa_r_scores(r, [row["p"]])
            assert row["traceNormSpaR"] == score.value == per_cell_norm(r, row["p"])
            assert row["upperBound"] == score.bound
            assert row["violated"] == int(score.verdict == Verdict.ENTANGLED)
            # l, k, q1 and q2 of a fresh analysis, each from its own SVD
            threshold = spa_threshold(realign(r.state))
            assert (row["l"], row["k"]) == (threshold.l, threshold.k)
            assert row["q1"] == q1_realignment_moments(realign(r.state))
            assert row["q2"] == (q2_rmoment(realign(r.state)) if r.state.dim == 9 else None)

    def test_refused_and_complex_states_equal_the_cell_by_cell_path(self):
        # a family state, one the domain gate refuses (NaN cells, l and k) and
        # a Ginibre state (complex spectrum: NaN l and k) in one sweep
        pairs = [(0.3, alpha_state(0.3)), (-0.125, isotropic(-1 / 8)), (7, ginibre_state())]
        rows = list(sweep_rows(pairs, P_GRID))
        expected = [cell_by_cell_row(param, rho, p) for param, rho in pairs for p in P_GRID]
        assert [list(map(repr, row.values())) for row in rows] == [
            list(map(repr, row)) for row in expected]
        nan_cells = [row["traceNormSpaR"] != row["traceNormSpaR"] for row in rows]
        assert nan_cells == [param == -0.125 for param, _ in pairs for _ in P_GRID]
        assert [row["l"] != row["l"] for row in rows] == [
            param != 0.3 for param, _ in pairs for _ in P_GRID]

    @pytest.mark.parametrize("family,params,n", [
        ("rho_t", [-0.7, 0.05, 0.4], 4), ("isotropic", [0.0, 0.5], 9),
        ("alpha_state", [0.2, 0.8], 9), ("rho_a", [0.75, 1.0], 9),
    ])
    def test_one_svd_call_per_state(self, monkeypatch, family, params, n):
        # the p-grid and R: the sweep's analogue of the one stacked SVD of a
        # certified report; then, for two qutrits, q2's own SVD of the state
        calls = counting_svds(monkeypatch)
        list(sweep_rows(family_pairs(family, params), P_GRID))
        assert calls == ([(len(P_GRID) + 1, n, n)] + [(9, 9)] * (n == 9)) * len(params)

    def test_a_refused_state_takes_the_svds_of_q1_and_q2(self, monkeypatch):
        calls = counting_svds(monkeypatch)
        list(sweep_rows([(0.3, alpha_state(0.3)), (-0.125, isotropic(-1 / 8))], P_GRID))
        assert calls == [(len(P_GRID) + 1, 9, 9), (9, 9), (9, 9), (9, 9)]


    @pytest.mark.parametrize("bad", [2.0, -0.5, float("nan")])
    def test_p_outside_unit_interval_raises_before_any_row(self, bad):
        rows = sweep_rows(family_pairs("rho_t", [0.1, 0.2]), [0.0, 0.5, bad])
        with pytest.raises(ValueError, match=re.escape(f"p must lie in [0, 1], got {bad}")):
            next(rows)

    def test_empty_p_list_yields_no_rows(self):
        # the first isotropic parameter has realigned trace 0: nothing is scored
        assert list(sweep_rows(family_pairs("isotropic", [-1 / 8, 0.5]), [])) == []
