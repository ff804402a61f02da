import math

import numpy as np
import pytest

from spar import (
    CaseTag,
    alpha_state,
    DomainError,
    EstimationInput,
    MomentInterval,
    isotropic,
    m1_case_bounds,
    m1_interval_quadratic,
    realign,
    rho_t,
    simulate_s,
    spa_threshold,
    swap_operator,
    validate_density,
)


class TestQuadraticInterval:
    def test_zero_offset_is_exactly_zero_to_s(self):
        for s in (0.05, 0.2, 0.24):
            iv = m1_interval_quadratic(EstimationInput(s=s, d=2, k=0.0))
            assert iv.lower == 0.0
            assert iv.upper == s

    def test_reference_roots(self):
        iv = m1_interval_quadratic(EstimationInput(s=0.2, d=2, k=0.01))
        root = math.sqrt(0.16**2 - 4 * 0.002)
        assert iv.lower == pytest.approx((0.16 - root) / 2, abs=1e-12)
        assert iv.upper == pytest.approx((0.16 + root) / 2, abs=1e-12)
        assert iv.lower == pytest.approx(0.013668, abs=1e-6)
        assert iv.upper == pytest.approx(0.146332, abs=1e-6)

    def test_degenerate_double_root(self):
        # choose k on the discriminant boundary: (d^2 k - s)^2 = 4 k (1 - d^2 s)
        d, s = 2, 0.2
        k = (2 - d * d * s - 2 * math.sqrt(1 - d * d * s)) / d**4
        iv = m1_interval_quadratic(EstimationInput(s=s, d=d, k=k))
        assert iv.upper - iv.lower <= 1e-7
        mid = (s - d * d * k) / 2
        assert iv.lower == pytest.approx(mid, abs=1e-7)

    def test_negative_discriminant_rejected(self):
        with pytest.raises(DomainError):
            m1_interval_quadratic(EstimationInput(s=0.2, d=2, k=0.05))

    def test_width_shrinks_monotonically_with_k_near_zero(self):
        # width = sqrt(disc) decreases from s as k grows inside the small-k window
        widths = []
        for k in np.linspace(0.0, 0.018, 25):
            iv = m1_interval_quadratic(EstimationInput(s=0.2, d=2, k=k))
            widths.append(iv.upper - iv.lower)
        assert widths[0] == pytest.approx(0.2)
        assert all(w1 >= w2 - 1e-15 for w1, w2 in zip(widths, widths[1:]))


def test_an_interval_whose_lower_end_exceeds_its_upper_is_refused():
    MomentInterval(0.2, 0.2 - 1e-13, CaseTag.CASE1)  # within the 1e-12 rounding slack
    with pytest.raises(ValueError, match=r"^empty interval \[0\.3, 0\.2\]$"):
        MomentInterval(0.3, 0.2, CaseTag.CASE1)


class TestEstimationInput:
    @pytest.mark.parametrize("s,k", [(math.nan, 0.1), (math.inf, 0.1), (0.1, math.nan),
                                     (0.1, math.inf), (-math.inf, -math.inf)])
    def test_refuses_s_or_k_that_is_not_finite(self, s, k):
        with pytest.raises(ValueError, match="^s and k must be finite"):
            EstimationInput(s=s, d=2, k=k)

    @pytest.mark.parametrize("d", [2.5, math.nan, math.inf, 2.0, np.float64(3.0), True])
    def test_refuses_a_dimension_that_is_not_an_integer(self, d):
        with pytest.raises(ValueError, match="^d must be an integer"):
            EstimationInput(s=0.1, d=d, k=0.1)

    def test_keeps_the_refusals_of_a_small_d_and_a_negative_k(self):
        with pytest.raises(ValueError, match="^d must be at least 2$"):
            EstimationInput(s=0.1, d=1, k=0.1)
        with pytest.raises(ValueError, match="^k must be nonnegative$"):
            EstimationInput(s=0.1, d=2, k=-0.1)


class TestCaseBounds:
    def test_case2_membership(self):
        iv = m1_case_bounds(EstimationInput(s=0.2, d=2, k=0.001))
        assert iv.case == CaseTag.CASE2

    def test_case1_membership(self):
        # d^4 k must reach 2 - d^2 s + 2 sqrt(x)
        inp = EstimationInput(s=0.2, d=2, k=0.14)
        assert inp.d**4 * inp.k >= 2 - 4 * 0.2 + 2 * math.sqrt(inp.x)
        iv = m1_case_bounds(inp)
        assert iv.case == CaseTag.CASE1
        assert iv.lower <= iv.upper

    def test_gap_falls_back_to_quadratic_and_reports_inconsistency(self):
        # between the two windows the quadratic has no real solution
        with pytest.raises(DomainError):
            m1_case_bounds(EstimationInput(s=0.2, d=2, k=0.1))

    def test_case2_degenerate_at_s_zero(self):
        iv = m1_case_bounds(EstimationInput(s=0.0, d=2, k=0.0))
        assert iv.case == CaseTag.CASE2
        assert iv.lower == pytest.approx(0.0, abs=1e-12)
        assert iv.upper == pytest.approx(0.0, abs=1e-12)
        assert iv.contains(0.0)

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            m1_case_bounds(EstimationInput(s=0.3, d=2, k=0.0))

    def test_windows_are_disjoint_on_grid(self):
        for s in np.linspace(0.0, 0.24, 100):
            x = 1 - 4 * s
            lo_edge = 2 - 4 * s - 2 * math.sqrt(x)
            hi_edge = 2 - 4 * s + 2 * math.sqrt(x)
            assert lo_edge <= hi_edge + 1e-15
        for s in np.linspace(0.0, 1 / 9, 100):
            x = 1 - 9 * s
            assert 2 - 9 * s - 2 * math.sqrt(x) <= 2 - 9 * s + 2 * math.sqrt(x) + 1e-15


class TestSimulateS:
    def test_full_depolarization(self):
        rho = isotropic(0.8)
        s = simulate_s(rho, 1.0)
        swap = swap_operator(3) / 3
        assert s == pytest.approx(np.trace(swap).real / 9, abs=1e-12)

    def test_maximally_mixed_exact_value(self):
        rho = validate_density(np.eye(4) / 4, (2, 2))
        # spa at p=0 is R/Tr[R]; with R = (e0+e3)(e0+e3)^T/4 and Tr[R] = 1/2
        # the SWAP expectation evaluates to 1/2
        assert simulate_s(rho, 0.0) == pytest.approx(0.5, abs=1e-12)


class TestContainmentReport:
    """The estimation chain mixes approximations with inequalities, so true
    first-moment containment is reported per family rather than asserted."""

    def test_report_families_with_psd_realignment(self, capsys):
        cases = [
            ("rho_t", rho_t(0.3)),
            ("isotropic", isotropic(0.6)),
            ("alpha_state", alpha_state(0.5)),
        ]
        for name, rho in cases:
            th = spa_threshold(rho)
            m1 = realign(rho).moment(1)
            for p in (th.l, 0.5):
                s = simulate_s(rho, p)
                try:
                    iv = m1_interval_quadratic(EstimationInput(s=s, d=rho.dim_a, k=th.k))
                    inside = iv.contains(m1)
                    print(f"[m1-containment] {name} p={p:.3f}: m1={m1:.6f} "
                          f"interval=[{iv.lower:.6f}, {iv.upper:.6f}] inside={inside}")
                except DomainError as exc:
                    print(f"[m1-containment] {name} p={p:.3f}: no real interval ({exc})")
        assert capsys.readouterr().out.count("[m1-containment]") == 6
