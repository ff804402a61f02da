import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spar.spa
from spar import (
    CpCertificate,
    DomainError,
    alpha_state,
    apply_spa,
    certify_completely_positive,
    criterion_report,
    descartes_psd_test,
    eigenvalue_offset,
    error_suite,
    isotropic,
    lambda_min_lower_bound,
    newton_coefficients,
    random_density,
    random_schmidt_symmetric,
    random_separable,
    realign,
    rho_a,
    rho_t,
    rho_t_reference_thresholds,
    simulate_s,
    spa_r_scores,
    spa_r_verdict,
    spa_threshold,
    threshold_value,
    validate_density,
)
from spar.linalg import general_eigenvalues, hermitian_eigenvalues, power_trace
from spar.realign import RealignedMatrix
from spar.sweeps import violation_p_max

from util import (
    count_spa_checks,
    elementary_symmetric,
    near_psd_state,
    newton_reference,
    random_hermitian,
    random_real_spectrum,
    rng_for,
    trace_norm,
)

A_LOW = 1 / math.sqrt(2)


def rho_t_k(t):
    """Moment lower-bound offset for the realigned two-qubit family."""
    return -(7 + 8 * t - math.sqrt(3 * (67 - 112 * t + 64 * t * t))) / 32


class TestLambdaMinLowerBound:
    def test_identity_tight(self):
        assert lambda_min_lower_bound(4, 4, 4) == pytest.approx(1.0)

    def test_two_point_tight_at_zero(self):
        assert lambda_min_lower_bound(2, 4, 2) == pytest.approx(0.0, abs=1e-14)

    def test_rho_t_closed_form(self):
        t = -0.5
        r = realign(rho_t(t))
        got = lambda_min_lower_bound(r.moment(1), r.moment(2), 4)
        assert got == pytest.approx(-rho_t_k(t), abs=1e-12)
        assert got == pytest.approx(-0.5444, abs=1e-4)

    def test_negative_radicand_rejected(self):
        with pytest.raises(DomainError):
            lambda_min_lower_bound(0.0, -1.0, 2)

    @pytest.mark.parametrize("n", [0, -1])
    def test_refuses_fewer_than_one_number(self, n):
        with pytest.raises(ValueError, match="^n must be a positive integer$"):
            lambda_min_lower_bound(1.0, 1.0, n)

    def test_is_a_lower_bound_on_random_hermitian(self):
        for seed in range(100):
            h = random_hermitian(rng_for(seed), 5)
            lb = lambda_min_lower_bound(
                power_trace(h, 1).real, power_trace(h, 2).real, 5
            )
            assert lb <= hermitian_eigenvalues(h)[0] + 1e-9


class TestNewtonCoefficients:
    def test_first_two(self):
        co = newton_coefficients([0.7, 0.3]).values
        assert co[0] == 1.0
        assert co[1] == pytest.approx(0.7)
        assert co[2] == pytest.approx((0.7**2 - 0.3) / 2)

    def test_two_eigenvalue_example(self):
        # eigenvalues {2, -1}: x^2 - x - 2
        co = newton_coefficients([1.0, 5.0]).values
        assert co[1] == pytest.approx(1.0)
        assert co[2] == pytest.approx(-2.0)

    def test_third_order_formula(self):
        m = [0.9, 0.5, 0.3]
        co = newton_coefficients(m).values
        want = (m[0] ** 3 - 3 * m[0] * m[1] + 2 * m[2]) / 6
        assert co[3] == pytest.approx(want, abs=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([4, 9]))
    def test_matches_direct_expansion_oracle(self, seed, n):
        m, lam = random_real_spectrum(rng_for(seed), n)
        moments = [power_trace(m, k).real for k in range(1, n + 1)]
        got = newton_coefficients(moments).values
        want = elementary_symmetric(lam)
        for k in range(n + 1):
            assert abs(got[k] - want[k]) <= 1e-8 * max(1.0, abs(want[k]))

    @pytest.mark.parametrize("rho", (
        [isotropic(b, d) for d in range(2, 7) for b in (-0.02, 0.4, 0.9)]
        + [random_schmidt_symmetric(d, d, seed=d) for d in range(2, 7)]
        + [near_psd_state(d, eps, seed=14) for d in (3, 4) for eps in (1e-4, 1e-8)]
        + [rho_t(0.3), rho_t(-0.3), rho_a(A_LOW), rho_a(0.9), alpha_state(0.5)]
    ), ids=repr)
    def test_equals_the_scalar_recursion_bit_for_bit(self, rho):
        r = realign(rho)
        co = newton_coefficients(r.moments(rho.dim_a ** 2))
        values, scales = newton_reference(r.moments(rho.dim_a ** 2))
        assert np.array_equal(co.values, values)
        assert np.array_equal(co.scales, scales)

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_the_scalar_recursion_on_non_normal_matrices(self, seed):
        m, _ = random_real_spectrum(rng_for(seed), 9)
        moments = [power_trace(m, k).real for k in range(1, 10)]
        co = newton_coefficients(moments)
        values, scales = newton_reference(moments)
        assert np.array_equal(co.values, values)
        assert np.array_equal(co.scales, scales)

    def test_elementary_symmetric_sanity(self):
        assert np.allclose(elementary_symmetric([2.0, -1.0]), [1.0, 1.0, -2.0])


class TestDescartes:
    def test_rho_t_positive_side_psd(self):
        co = newton_coefficients(realign(rho_t(0.3)).moments(4))
        assert descartes_psd_test(co)

    def test_rho_t_negative_side_not_psd(self):
        co = newton_coefficients(realign(rho_t(-0.3)).moments(4))
        assert not descartes_psd_test(co)

    def test_alpha_state_psd_with_vanishing_top_coefficient(self):
        co = newton_coefficients(realign(alpha_state(0.5)).moments(9))
        assert abs(co.values[9]) < 1e-15  # structurally zero
        assert descartes_psd_test(co)

    @pytest.mark.parametrize(
        "family,grid",
        [
            (rho_t, np.linspace(-0.78, 0.78, 31)),
            (rho_a, np.linspace(A_LOW + 1e-3, 1.0, 21)),
            (isotropic, np.linspace(-0.12, 1.0, 29)),
            (alpha_state, np.linspace(0.02, 0.98, 25)),
        ],
    )
    def test_agrees_with_oracle_sign(self, family, grid):
        for x in grid:
            rho = family(float(x))
            r = realign(rho)
            lam_min = float(np.min(general_eigenvalues(r.matrix).real))
            if abs(lam_min) <= 1e-8:
                continue  # too close to the boundary to demand agreement
            co = newton_coefficients(r.moments(rho.dim_a ** 2))
            assert descartes_psd_test(co) == (lam_min > 0)


class TestSpaThreshold:
    def test_psd_branch_gives_zero(self):
        th = spa_threshold(rho_t(0.3))
        assert th.psd
        assert th.l == 0.0
        assert th.k > 0  # the loose variance bound can be negative for a PSD matrix

    def test_threshold_value_arithmetic(self):
        assert threshold_value(1.0, 1.0, 2) == pytest.approx(0.8)

    def test_rho_t_negative_side_closed_form(self):
        for t in np.linspace(-0.79, -0.01, 25):
            s = math.sqrt(3 * (67 - 112 * t + 64 * t * t))
            want = (s - 7 - 8 * t) / s  # 4k/(m1+4k) with m1 = t + 7/8
            assert spa_threshold(rho_t(t)).l == pytest.approx(want, abs=1e-12)

    def test_rho_a_closed_form(self):
        # 9k/(m1+9k) with m1 = 9/(5+2a^2) and k = (8a-3)/(3(5+2a^2))
        for a in np.linspace(A_LOW + 1e-3, 1.0, 25):
            assert spa_threshold(rho_a(a)).l == pytest.approx(1 - 3 / (8 * a), abs=1e-12)

    def test_rho_a_endpoint_is_psd(self):
        th = spa_threshold(rho_a(A_LOW))
        assert th.psd
        assert th.l == 0.0
        lam = general_eigenvalues(realign(rho_a(A_LOW)).matrix).real
        assert np.min(lam) >= -1e-8

    def test_requires_square_dims(self):
        with pytest.raises(ValueError):
            spa_threshold(random_separable(2, 3, terms=2, seed=0))

    def test_rejects_complex_spectrum(self):
        rho = random_separable(3, 3, terms=6, seed=42)
        lam = general_eigenvalues(realign(rho).matrix)
        assert np.max(np.abs(lam.imag)) > 1e-7  # generic mixtures leave the domain
        with pytest.raises(DomainError):
            spa_threshold(rho)

    def test_negative_sign_test_with_zero_offset_gives_l_zero(self, monkeypatch):
        # a PSD state forced through the non-PSD branch: its moment bound is
        # nonnegative, which already certifies lambda_min(R) >= 0
        monkeypatch.setattr(spar.spa, "descartes_psd_test", lambda *a, **k: False)
        th = spa_threshold(rho_t(0.5))
        assert (th.psd, th.k, th.l) == (False, 0.0, 0.0)
        assert th.lower_bound >= 0.0


# every public function behind the SPA's preconditions, called at a weight p
WITH_P = {
    "apply_spa": apply_spa,
    "spa_r_scores": lambda rho, p: spa_r_scores(rho, [p]),
    "spa_r_verdict": spa_r_verdict,
    "error_suite": error_suite,
    "criterion_report": criterion_report,
    "simulate_s": simulate_s,
}
# and those that take no weight
WITHOUT_P = {
    "spa_threshold": spa_threshold,
    "eigenvalue_offset": eigenvalue_offset,
    "violation_p_max": violation_p_max,
}
TRACE_ZERO = isotropic(-1 / 8)  # Tr R vanishes up to rounding

GATE_CASES = {
    "unequal_dims": (random_separable(2, 3, 3, seed=1), 0.5, ValueError,
                     "the SPA requires equal subsystem dimensions"),
    "trace_zero_bad_p": (TRACE_ZERO, 2.0, ValueError, "p must lie in [0, 1], got 2.0"),
    "trace_zero": (TRACE_ZERO, 0.5, DomainError, r"realigned trace [-+.0-9e]+ is not positive"),
    "bad_p": (rho_t(0.3), 1.5, ValueError, "p must lie in [0, 1], got 1.5"),
}
# a sequence or another value that is not a real number where one weight
# belongs, and its repr, which the refusal names
SEQUENCE_P = {
    "list": ([0.1, 0.2], "[0.1, 0.2]"),
    "tuple": ((0.1, 0.2), "(0.1, 0.2)"),
    "array": (np.array([0.5]), "array([0.5])"),
    "nested": ([[0.5]], "[[0.5]]"),
    "string": ("0.5", "'0.5'"),
    "bool": (True, "True"),
}


class TestDomainGate:
    """p first, then equal dimensions, then a positive Tr R: every function
    refuses the same input with the same exception and message."""

    @pytest.mark.parametrize("case", sorted(GATE_CASES))
    @pytest.mark.parametrize("shared", [False, True], ids=["state", "shared_analysis"])
    def test_every_function_gives_the_same_refusal(self, case, shared):
        rho, p, kind, message = GATE_CASES[case]
        calls = {name: functools.partial(f, p=p) for name, f in WITH_P.items()}
        if 0 <= p <= 1:
            calls.update(WITHOUT_P)
        source = realign(rho) if shared else rho
        refusals = {}
        for name, call in calls.items():
            with pytest.raises(ValueError) as err:
                call(source)
            refusals[name] = (type(err.value), str(err.value))
        assert len(set(refusals.values())) == 1, refusals
        [(raised, text)] = set(refusals.values())
        assert raised is kind
        assert re.fullmatch(message if kind is DomainError else re.escape(message), text)

    @pytest.mark.parametrize("case", sorted(SEQUENCE_P))
    def test_a_function_of_one_p_refuses_a_sequence_before_the_gate(self, monkeypatch, case):
        p, text = SEQUENCE_P[case]
        gates, _ = count_spa_checks(monkeypatch)
        for rho in (rho_t(0.3), TRACE_ZERO, GATE_CASES["unequal_dims"][0]):
            for name, call in WITH_P.items():
                with pytest.raises(ValueError) as err:
                    call(rho, p)
                assert (type(err.value), str(err.value)) == (
                    ValueError, f"p must be a number, got {text}"), name
        assert gates == []

    @pytest.mark.parametrize("name", sorted({**WITH_P, **WITHOUT_P}))
    def test_each_call_decides_the_domain_once_and_checks_p_at_most_once(self, monkeypatch,
                                                                          name):
        call = functools.partial(WITH_P[name], p=0.5) if name in WITH_P else WITHOUT_P[name]
        gates, weights = count_spa_checks(monkeypatch)
        for rho in (rho_t(-0.6), alpha_state(0.3), isotropic(0.4, 4)):
            gates.clear()
            weights.clear()
            call(rho)
            assert len(gates) == 1
            assert len(weights) == (name in WITH_P)

    def test_certify_checks_p_once_on_a_threshold_and_runs_no_gate(self, monkeypatch):
        # the gate ran where the threshold was built; a second threshold
        # (a fresh realignment) would run it again
        thresholds = [spa_threshold(rho) for rho in (rho_t(-0.6), alpha_state(0.3),
                                                     isotropic(0.4, 4))]
        gates, weights = count_spa_checks(monkeypatch)
        for threshold in thresholds:
            certify_completely_positive(threshold, 0.5)
        assert (gates, weights) == ([], [[0.5]] * 3)

    def test_the_trace_is_the_analysis_trace(self):
        for rho in (rho_t(-0.6), isotropic(0.4, 4), alpha_state(0.3)):
            r = realign(rho)
            assert spa_threshold(r).realigned.spa_trace == r.spa_trace == r.moment(1)
            # Tr R has two names: spa_trace behind the SPA's gate, moment(1) among the moments
            assert not hasattr(r, "trace")


def count_eigensolves(monkeypatch) -> list:
    """Record every ``linalg.general_eigenvalues`` call from here on."""
    calls = []
    solve = spar.linalg.general_eigenvalues

    def general_eigenvalues(m):
        calls.append(m)
        return solve(m)

    monkeypatch.setattr(spar.linalg, "general_eigenvalues", general_eigenvalues)
    return calls


def with_imaginary_pair(r, imag):
    """A test-only forged analysis: r's state with R replaced by a real matrix
    whose eigenvalues are 0.1 +- i imag and 0.1, ..., 0.1 + (n - 3)/100, so its
    largest |Im lambda| is ``imag`` up to rounding. Its R is not the state's,
    so it is built past the constructor that only realign may use."""
    n = r.matrix.shape[0]
    m = np.diag(np.concatenate(([0.1, 0.1], 0.1 + np.arange(n - 2) / 100))).astype(complex)
    m[0, 1], m[1, 0] = -imag, imag
    forged = object.__new__(RealignedMatrix)
    vars(forged).update(state=r.state, _moments=[], matrix=m)
    return forged


class TestRealSpectrumCheck:
    @pytest.mark.parametrize("rho, skew", [
        (isotropic(0.3, 6), "exact"),
        (random_schmidt_symmetric(5, 5, seed=3), "rounding"),
        (near_psd_state(4, 1e-6, seed=2), "rounding"),
        (rho_t(0.3), "none"),
    ], ids=repr)
    @pytest.mark.parametrize("check", [spa_threshold, eigenvalue_offset],
                             ids=lambda f: f.__name__)
    def test_every_r_takes_one_general_eigensolve(self, monkeypatch, rho, skew, check):
        r = realign(rho)
        defect = np.linalg.norm(r.matrix - r.matrix.conj().T)
        assert {"exact": defect == 0, "rounding": 0 < defect <= spar.DEFAULT.spectrum_imag,
                "none": defect > spar.DEFAULT.spectrum_imag}[skew]
        calls = count_eigensolves(monkeypatch)
        check(r)
        assert len(calls) == 1 and calls[0] is r.matrix
        # cached: a second check reads the same eigenvalues
        threshold = spa_threshold(r)
        assert eigenvalue_offset(r) == (threshold.lower_bound, threshold.k)
        assert len(calls) == 1

    def test_the_bound_is_on_the_imaginary_part_itself(self, monkeypatch):
        r = realign(isotropic(0.5, 3))
        tol = spar.DEFAULT.spectrum_imag
        worst = {}
        for scale in (0.99, 1.01):
            imag = np.linalg.eigvals(with_imaginary_pair(r, scale * tol).matrix).imag
            worst[scale] = float(np.max(np.abs(imag)))
            assert worst[scale] == pytest.approx(scale * tol, rel=1e-6)
        calls = count_eigensolves(monkeypatch)
        message = f"realigned spectrum has imaginary part {worst[1.01]:.3e}"
        for check in (spa_threshold, eigenvalue_offset):
            check(with_imaginary_pair(r, 0.99 * tol))
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                check(with_imaginary_pair(r, 1.01 * tol))
        assert len(calls) == 4

    def test_complex_spectrum_is_refused_with_the_largest_imaginary_part(self, monkeypatch):
        rho = validate_density(random_density(9, seed=3), (3, 3))
        worst = float(np.max(np.abs(np.linalg.eigvals(realign(rho).matrix).imag)))
        calls = count_eigensolves(monkeypatch)
        message = f"realigned spectrum has imaginary part {worst:.3e}"
        for refused in (spa_threshold, eigenvalue_offset):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                refused(realign(rho))
        assert len(calls) == 2


class TestApplySpa:
    def test_full_depolarization(self):
        for rho in (rho_t(0.4), isotropic(0.6)):
            n = rho.dim_a ** 2
            assert np.array_equal(apply_spa(rho, 1.0), np.eye(n) / n)

    def test_no_mixing_with_unit_trace(self):
        rho = rho_t(0.125)  # Tr[R] = 1 exactly
        r = realign(rho)
        assert r.moment(1) == 1.0
        assert np.allclose(apply_spa(rho, 0.0), r.matrix, atol=0)

    def test_unit_trace_everywhere(self):
        from spar.states import random_density

        for seed in range(25):
            d = 2 if seed % 2 else 3
            rho = validate_density(random_density(d * d, rng_for(seed)), (d, d))
            for p in (0.0, 0.3, 0.9, 1.0):
                tr = np.trace(apply_spa(rho, p))
                assert abs(tr - 1.0) <= 1e-12

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            apply_spa(rho_t(0.3), 1.5)

    def test_weight_sequence_gives_the_stack_of_single_weights(self):
        # the p-grid of a sweep is one _mixture call
        ps = [-0.0, 0.0, 0.25, 0.7, 1.0]
        for rho in (rho_t(-0.6), isotropic(0.4, 4), alpha_state(0.3)):
            r = realign(rho)
            stack = spar.spa._mixture(r, ps)
            # the grid, then R
            assert stack.shape == (len(ps) + 1,) + (rho.dim,) * 2
            assert np.array_equal(stack[-1], r.matrix)
            for p, spa in zip(ps, stack):
                assert np.array_equal(spa, apply_spa(rho, p))
        assert spar.spa._mixture(realign(rho_t(0.3)), []).shape == (1, 4, 4)

    @pytest.mark.parametrize("rho", [
        rho_t(-0.6), rho_a(0.8), isotropic(0.4, 4), alpha_state(0.3),
        validate_density(random_density(9, seed=3), (3, 3)),
    ], ids=repr)
    def test_stack_is_the_identity_mixture_entry_for_entry(self, rho):
        # b R with a added on the diagonal: the doubles of a I + b R, with no
        # identity matrix and no complex coefficients
        r = realign(rho)
        ps = [-0.0, 0.0, 1e-12, 0.25, 1 / 3, 0.7, 1 - 2**-24, 1.0]
        n = r.dim_a * r.dim_b
        a, b = (c.astype(np.complex128)[:, None, None]
                for c in spar.spa._map_coefficients(r, np.array(ps)))
        reference = a * np.eye(n, dtype=np.complex128) + b * r.matrix
        # the grid's coefficients are the doubles of each weight's scalar path
        assert list(zip(a.real.ravel().tolist(), b.real.ravel().tolist())) == [
            spar.spa._map_coefficients(r, p) for p in ps]
        stack = spar.spa._mixture(r, ps)[:len(ps)]
        assert stack.dtype == np.complex128
        assert np.array_equal(stack, reference)
        # a zero's sign may differ; no singular value does
        assert np.array_equal(np.linalg.svd(stack, compute_uv=False),
                              np.linalg.svd(reference, compute_uv=False))
        assert np.array_equal(spar.spa._mixture(r, []), r.matrix[None])

    def test_weight_sequence_rejects_first_bad_p_and_other_shapes(self):
        # the check a grid passes once before it goes to _mixture
        check = spar.spa.require_weights
        assert check((0.25, 1)) == [0.25, 1.0] and check([]) == []
        # one double per weight: a float32 or numpy weight becomes a Python float
        weights = check([np.float32(0.1), np.float64(0.5), np.int64(1)])
        assert weights == [float(np.float32(0.1)), 0.5, 1.0]
        assert {type(w) for w in weights} == {float}
        with pytest.raises(ValueError, match=r"got -0\.5$"):
            check([0.1, -0.5, 1.5])
        with pytest.raises(ValueError, match=re.escape("p must be a number, got [0.1, 0.2]")):
            check([[0.1, 0.2]])
        with pytest.raises(ValueError, match=re.escape("p must be a number, got [0.2]")):
            check([0.5, [0.2]])
        with pytest.raises(ValueError, match=re.escape("p must be a number, got False")):
            check([0.5, False])

    def test_schmidt_symmetric_norm_is_one(self, schmidt_symmetric_states):
        for rho in schmidt_symmetric_states[:20]:
            for p in (0.0, 0.5, 1.0):
                assert trace_norm(apply_spa(rho, p)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "rho", [rho_t(0.3), rho_t(-0.6), rho_a(0.9), isotropic(0.7), alpha_state(0.4)]
    )
    def test_weyl_floor_on_families(self, rho):
        th = spa_threshold(rho)
        lam_r_min = float(np.min(general_eigenvalues(realign(rho).matrix).real))
        for p in (th.l, (th.l + 1) / 2, 1.0):
            lam_min = float(np.min(general_eigenvalues(apply_spa(rho, p)).real))
            floor = p / th.realigned.dim_a**2 + (1 - p) * lam_r_min / th.realigned.spa_trace
            assert lam_min >= floor - 1e-8

    @pytest.mark.parametrize(
        "rho", [rho_t(0.3), rho_t(-0.6), rho_a(0.9), isotropic(0.7), alpha_state(0.4)]
    )
    def test_spa_output_is_psd_by_sign_test_for_p_above_l(self, rho):
        th = spa_threshold(rho)
        n = th.realigned.dim_a ** 2
        for p in (th.l, (th.l + 1) / 2, 1.0):
            m = apply_spa(rho, p)
            moments = [power_trace(m, k).real for k in range(1, n + 1)]
            assert descartes_psd_test(newton_coefficients(moments))


class TestCertifyCompletelyPositive:
    def test_depolarizing_limit_always_certified(self):
        cert = certify_completely_positive(spa_threshold(rho_t(-0.5)), 1.0)
        assert cert.certified
        assert cert.gamma1 == 0.0
        assert cert.gamma2 >= 0.0

    def test_below_threshold_not_certified(self):
        cert = certify_completely_positive(spa_threshold(rho_t(-0.7)), 0.0)
        assert not cert.certified
        assert cert.gamma1 is None

    def test_certified_exactly_from_the_threshold_on(self):
        th = spa_threshold(rho_t(-0.7))
        assert th.l == 0.939203943228437
        assert certify_completely_positive(th, th.l).certified
        below = certify_completely_positive(th, float(np.nextafter(th.l, 0)))
        assert below == CpCertificate(False, None, None)

    def test_isotropic_certified_for_all_p(self):
        th = spa_threshold(isotropic(0.5))
        for p in (0.0, 0.5, 1.0):
            assert certify_completely_positive(th, p).certified

    @pytest.mark.parametrize("p", [1.5, -0.5, float("nan")])
    def test_rejects_a_weight_outside_the_unit_interval(self, p):
        # isotropic(0.5) has l = 0, so no threshold comparison can refuse p
        with pytest.raises(ValueError, match="p must lie in"):
            certify_completely_positive(spa_threshold(isotropic(0.5)), p)

    def test_rejects_a_sequence_of_weights(self):
        with pytest.raises(ValueError, match=re.escape("p must be a number, got [0.5, 0.6]")):
            certify_completely_positive(spa_threshold(isotropic(0.5)), [0.5, 0.6])

    def test_reads_the_threshold_from_a_spa_analysis(self):
        for rho, p in ((rho_t(-0.7), 0.0), (rho_t(-0.5), 0.9), (alpha_state(0.3), 0.2)):
            analysis = spa_threshold(realign(rho))
            cert = certify_completely_positive(analysis, p)
            assert cert.certified == (p >= analysis.l)
            assert (cert.gamma1 is None) == (not cert.certified)

    def test_witnesses_satisfy_the_two_inequalities(self):
        for rho, p in ((rho_t(-0.5), 0.9), (alpha_state(0.3), 0.2), (isotropic(0.8), 0.0)):
            cert = certify_completely_positive(spa_threshold(rho), p)
            assert cert.certified
            lam_spa = general_eigenvalues(apply_spa(rho, p)).real
            lam_rho = hermitian_eigenvalues(rho.matrix)
            assert np.min(lam_spa) >= cert.gamma1 * lam_rho[0] - 1e-8
            assert np.max(lam_spa) <= cert.gamma2 * lam_rho[-1] + 1e-12


    def test_gamma2_reads_eig_r_and_the_validated_spectrum(self):
        states = [rho_t(-0.5), alpha_state(0.3), isotropic(0.8), rho_a(0.9),
                  random_schmidt_symmetric(3, 2, seed=5)]
        for rho in states:
            assert not rho.spectrum.flags.writeable
            assert np.array_equal(rho.spectrum, hermitian_eigenvalues(rho.matrix))
            th = spa_threshold(rho)
            p = 1.0 if th.l > 0.9 else 0.9
            # every R, an exactly Hermitian one (isotropic) too, by the general solver
            lam_r = float(np.max(general_eigenvalues(realign(rho).matrix).real))
            lam_rho = float(np.max(hermitian_eigenvalues(rho.matrix)))
            gamma2 = certify_completely_positive(th, p).gamma2
            assert gamma2 == (p / rho.dim + (1.0 - p) / th.realigned.spa_trace * lam_r) / lam_rho
            # the eigensolve of the SPA matrix that gamma2 once came from
            lam_spa = float(np.max(general_eigenvalues(apply_spa(rho, p)).real))
            assert gamma2 == pytest.approx(lam_spa / lam_rho, rel=1e-13, abs=0)


@pytest.mark.parametrize("rho, p", [
    (rho_t(-0.5), 0.9), (rho_t(0.3), 0.0), (rho_a(0.9), 0.95), (alpha_state(0.3), 0.2),
    (isotropic(0.8), 0.0), (isotropic(-0.1), 0.99), (isotropic(0.4, 2), 0.3),
    (random_schmidt_symmetric(3, 2, seed=5), 0.6), (near_psd_state(3, 1e-6, seed=2), 0.3),
], ids=repr)
def test_gamma2_matches_the_exact_spa_spectrum(rho, p):
    # oracle: lambda_max of the SPA matrix and of the state from the same
    # doubles, in 50-digit arithmetic; gamma2 may differ by rounding alone
    mpmath = pytest.importorskip("mpmath")
    cert = certify_completely_positive(spa_threshold(rho), p)
    assert cert.certified
    d, n = rho.dim_a, rho.dim
    with mpmath.workdps(50):
        state = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in rho.matrix])
        # R[(i, k), (j, l)] = rho[(i, j), (k, l)]
        r = mpmath.matrix(n, n)
        for i, j, k, l in np.ndindex(d, d, d, d):
            r[i * d + k, j * d + l] = state[i * d + j, k * d + l]
        trace_r = sum(r[i, i] for i in range(n))
        spa = mpmath.eye(n) * (mpmath.mpf(p) / n) + r * ((1 - mpmath.mpf(p)) / trace_r)
        lam_spa = max(mpmath.re(x) for x in mpmath.eig(spa, left=False, right=False))
        lam_rho = max(mpmath.eighe(state, eigvals_only=True))
        error = abs(cert.gamma2 - lam_spa / lam_rho) / (lam_spa / lam_rho)
    assert error <= 8 * n * np.finfo(float).eps


class TestReferenceThresholds:
    def test_p3_root_is_the_detection_onset(self):
        # numerator 64 t^2 - 128 t + 14 vanishes at 1 - 5 sqrt(2)/8
        t_star = 1 - 5 * math.sqrt(2) / 8
        assert rho_t_reference_thresholds(t_star).p3 == pytest.approx(0.0, abs=1e-12)
        assert t_star == pytest.approx(0.116117, abs=5e-7)

    def test_p3_is_one_at_one_eighth(self):
        assert rho_t_reference_thresholds(0.125).p3 == pytest.approx(1.0, abs=1e-12)

    def test_p1_equals_unnormalized_threshold(self):
        # p1 is d^2 k / (1 + d^2 k), i.e. the threshold with the realigned
        # trace replaced by 1; the implemented threshold divides by Tr[R].
        for t in np.linspace(-0.79, -0.01, 20):
            k = rho_t_k(t)
            ref = rho_t_reference_thresholds(t)
            assert ref.p1 == pytest.approx(4 * k / (1 + 4 * k), abs=1e-12)

    def test_detection_window_closes_where_p1_meets_p2(self):
        ref = rho_t_reference_thresholds(-0.665506)
        assert ref.p1 == pytest.approx(ref.p2, abs=1e-6)

    def test_range_check(self):
        with pytest.raises(ValueError):
            rho_t_reference_thresholds(0.8)

    def test_nan_fails_the_range_check(self):
        with pytest.raises(ValueError, match="thresholds are defined for"):
            rho_t_reference_thresholds(math.nan)
