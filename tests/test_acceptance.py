"""Acceptance suite.

One test per criterion (split into parts where a criterion bundles several
claims), each ending with a printed pass line. Reference values that are
provably inconsistent with the defining formulas are kept as strict xfail
tests right next to a passing test that pins down the actual behavior; each
xfail reason states the contradiction.
"""

import hashlib
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from spar import (
    Verdict,
    alpha_state,
    apply_spa,
    descartes_psd_test,
    error_suite,
    isotropic,
    lambda_min_lower_bound,
    m1_interval_quadratic,
    newton_coefficients,
    q1_realignment_moments,
    q2_rmoment,
    realign,
    realign_matrix,
    realignment_criterion,
    rho_a,
    rho_t,
    rho_t_reference_thresholds,
    spa_r_verdict,
    spa_threshold,
    EstimationInput,
)
from spar.linalg import hermitian_eigenvalues, power_trace
from spar.sweeps import bisect_boundary, table1_rows

from util import (
    elementary_symmetric,
    random_complex,
    random_hermitian,
    random_real_spectrum,
    rng_for,
)

A_LOW = 1 / math.sqrt(2)


def ok(label):
    print(f"[acceptance] {label}: PASS")


def entangled(rho, p):
    return spa_r_verdict(rho, p) == Verdict.ENTANGLED


# ---------------------------------------------------------------------------
# criterion 1: two-qubit family detection boundaries
# ---------------------------------------------------------------------------

def test_c1_detection_onset_at_p_zero():
    t_star = bisect_boundary(lambda t: entangled(rho_t(t), 0.0), 0.10, 0.15, tol=1e-7)
    assert t_star == pytest.approx(0.116117, abs=5e-4)
    ok(f"criterion 1a: onset t* = {t_star:.6f} within 5e-4 of 0.116117")


def test_c1_positive_range_detected_below_full_depolarization():
    for t in np.linspace(0.1251, 0.7905, 12):
        for p in (0.0, 0.5):
            assert entangled(rho_t(float(t)), p)
    ok("criterion 1b: entangled for t in (0.125, 0.7905] at p in {0, 0.5}")


def test_c1_full_depolarization_is_always_inconclusive():
    # at p = 1 the SPA output is I/d^2 and the separable bound equals 1
    # exactly, for every state: the criterion carries no information there
    for t in (0.13, 0.5, 0.7905):
        assert not entangled(rho_t(t), 1.0)
    ok("criterion 1b': p = 1 is inconclusive for every state (exact tie)")


@pytest.mark.xfail(
    strict=True,
    reason="at p = 1 the SPA trace norm and the separable bound are both "
    "exactly 1 for every state, so no verdict can be 'entangled' there: "
    "a detection claim cannot include that endpoint",
)
def test_c1_literal_detection_at_p_one():
    assert entangled(rho_t(0.5), 1.0)


def test_c1_negative_side_window():
    ref = rho_t_reference_thresholds(-0.7)
    state = rho_t(-0.7)
    for p in np.linspace(ref.p1, ref.p2 - 1e-6, 9):
        assert entangled(state, float(p))
    upper = bisect_boundary(lambda p: entangled(state, p), 0.5, 0.9, tol=1e-8)
    assert upper == pytest.approx(ref.p2, abs=1e-4)
    for p in (ref.p2 + 1e-3, 0.9, 1.0):
        assert not entangled(state, p)
    ok(f"criterion 1c: t=-0.7 violated on [p1, p2), upper edge {upper:.6f} "
       f"matches p2 = {ref.p2:.6f} within 1e-4")


@pytest.mark.xfail(
    strict=True,
    reason="the trace-norm inequality is genuinely violated on all of "
    "[0, p2), not only above p1: p1 is a map-positivity threshold, not a "
    "boundary of the violated set",
)
def test_c1_literal_no_detection_below_p1():
    ref = rho_t_reference_thresholds(-0.7)
    assert not entangled(rho_t(-0.7), ref.p1 / 2)


# ---------------------------------------------------------------------------
# criterion 2: threshold closed forms
# ---------------------------------------------------------------------------

def test_c2_rho_t_threshold_closed_form():
    # l = 4k/(m1 + 4k) collapses to (S - 7 - 8t)/S with S the square root
    # appearing in k, since m1 + 4k = S/8 exactly
    for t in np.linspace(-0.79, -0.01, 50):
        s = math.sqrt(3 * (67 - 112 * t + 64 * t * t))
        assert spa_threshold(rho_t(float(t))).l == pytest.approx((s - 7 - 8 * t) / s, abs=1e-9)
    ok("criterion 2a: rho_t threshold matches its moment closed form at 1e-9 (50 pts)")


@pytest.mark.xfail(
    strict=True,
    reason="the reference closed form p1(t) equals 4k/(1 + 4k), the threshold "
    "of the unnormalized mixture, which contradicts the defining formula "
    "d^2 k/(Tr[R] + d^2 k); Tr[R(rho_t)] = t + 7/8 != 1",
)
def test_c2_literal_rho_t_threshold_equals_reference_p1():
    for t in np.linspace(-0.79, -0.01, 50):
        ref = rho_t_reference_thresholds(float(t))
        assert spa_threshold(rho_t(float(t))).l == pytest.approx(ref.p1, abs=1e-9)


def test_c2_reference_p1_is_the_unnormalized_threshold():
    for t in np.linspace(-0.79, -0.01, 50):
        th = spa_threshold(rho_t(float(t)))
        ref = rho_t_reference_thresholds(float(t))
        assert ref.p1 == pytest.approx(4 * th.k / (1 + 4 * th.k), abs=1e-9)
    ok("criterion 2b: reference p1 identified as 4k/(1+4k) at 1e-9 (50 pts)")


def test_c2_rho_a_threshold_closed_form():
    # the defining threshold with the family's true moments: a1 = 9/c and
    # a2 = 4(9 - a^2)/c^2 give m2 = (9 + 8a^2)/c^2, hence k = (8a - 3)/(3c)
    # and l = 1 - 3/(8a)
    for a in np.linspace(A_LOW, 1.0, 51)[1:]:
        assert spa_threshold(rho_a(float(a))).l == pytest.approx(1 - 3 / (8 * a), abs=1e-9)
    ok("criterion 2c: rho_a threshold matches 1 - 3/(8a) at 1e-9 (50 pts)")


def test_c2_rho_a_reference_coefficients_match_computed_moments():
    # the same moments that feed the threshold reproduce all nine reference
    # characteristic-polynomial coefficients of this family
    for a in (0.75, 0.9, 1.0):
        c = 5 + 2 * a * a
        mine = newton_coefficients(realign(rho_a(a)).moments(9)).values[1:]
        want = [
            9 / c,
            4 * (9 - a * a) / c**2,
            28 * (3 - a * a) / c**3,
            (126 - 84 * a * a + 5 * a**4) / c**4,
            (126 - 140 * a * a + 25 * a**4) / c**5,
            -2 * (-42 + 70 * a * a - 25 * a**4 + a**6) / c**6,
            -2 * (-18 + 42 * a * a - 25 * a**4 + 3 * a**6) / c**7,
            -(-9 + 28 * a * a - 25 * a**4 + 6 * a**6) / c**8,
            -((a * a - 1) ** 2) * (2 * a * a - 1) / c**9,
        ]
        assert np.allclose(mine, want, atol=1e-12)
    ok("criterion 2d: rho_a reference coefficient formulas reproduced from moments")


@pytest.mark.xfail(
    strict=True,
    reason="the reference closed form l1(a) implies a second moment "
    "(9/c^2 + (81/4)/(56+45a^2+9a^4)) that contradicts the same family's "
    "a2 = 4(9-a^2)/c^2 (equivalently m2 = (9+8a^2)/c^2)",
)
def test_c2_literal_rho_a_threshold_equals_reference_l1():
    for a in np.linspace(A_LOW, 1.0, 50):
        w = math.sqrt(1.0 / (56 + 9 * a * a * (5 + a * a)))
        l1 = (-1 + 15 * math.sqrt(2) * w + 6 * math.sqrt(2) * a * a * w) / (
            3 * math.sqrt(2) * (5 + 2 * a * a) * w
        )
        assert spa_threshold(rho_a(float(a))).l == pytest.approx(l1, abs=1e-9)


# ---------------------------------------------------------------------------
# criterion 3: detection-window table for the bound entangled family
# ---------------------------------------------------------------------------

TABLE1_EXPECTED = {
    0.1: 0.019383, 0.2: 0.022143, 0.3: 0.021903, 0.4: 0.020444, 0.5: 0.018284,
    0.6: 0.015611, 0.7: 0.012488, 0.8: 0.008904, 0.9: 0.004791,
}


def test_c3_table1_reproduction():
    rows = table1_rows()
    for row in rows:
        want = TABLE1_EXPECTED[row["alpha"]]
        assert row["p_max"] == pytest.approx(want, abs=1e-3), row
    worst = max(abs(row["p_max"] - TABLE1_EXPECTED[row["alpha"]]) for row in rows)
    ok(f"criterion 3: all nine detection windows within 1e-3 (worst {worst:.2e})")


# ---------------------------------------------------------------------------
# criterion 4: isotropic family
# ---------------------------------------------------------------------------

def test_c4_isotropic_boundary():
    # the family is beta P+ + (1-beta)/9 I (its validity floor -1/8 pins
    # that parameterization); for it Tr[R] = (1+8 beta)/3 and
    # ||R||_1 = Tr[R], so detection starts exactly where Tr[R] crosses 1,
    # i.e. beta = 1/4, matching the partial-transpose boundary
    for p in (0.0, 0.5):
        boundary = bisect_boundary(
            lambda b: entangled(isotropic(float(b)), p), 0.2, 0.45, tol=1e-8
        )
        assert boundary == pytest.approx(0.25, abs=1e-6)
    ppt = bisect_boundary(
        lambda b: hermitian_eigenvalues(
            isotropic(float(b)).matrix.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
        )[0] < 0,
        0.2, 0.45, tol=1e-8,
    )
    assert ppt == pytest.approx(0.25, abs=1e-6)
    ok("criterion 4a: isotropic boundary at beta = 1/4 (= PPT boundary) within 1e-6")


@pytest.mark.xfail(
    strict=True,
    reason="for this parameterization the separability boundary is beta = 1/4 "
    "(1/3 is the fidelity threshold of a different parameterization, "
    "inconsistent with the validity floor -1/8)",
)
def test_c4_literal_boundary_at_one_third():
    boundary = bisect_boundary(lambda b: entangled(isotropic(float(b)), 0.0), 0.2, 0.45)
    assert boundary == pytest.approx(1 / 3, abs=1e-6)


def test_c4_realigned_isotropic_is_psd_for_nonnegative_beta():
    for beta in np.linspace(0.0, 1.0, 21):
        rho = isotropic(float(beta))
        co = newton_coefficients(realign(rho).moments(9))
        assert descartes_psd_test(co)
    ok("criterion 4b: realigned isotropic passes the sign test for beta >= 0 (21 pts)")


# ---------------------------------------------------------------------------
# criterion 5: competing moment criteria
# ---------------------------------------------------------------------------

def test_c5_q1_boundary():
    boundary = bisect_boundary(lambda t: q1_realignment_moments(rho_t(t)) > 0, 0.30, 0.45, tol=1e-8)
    assert boundary == pytest.approx(0.370992, abs=5e-3)
    ok(f"criterion 5a: Q1 boundary t = {boundary:.6f} within 5e-3 of 0.370992")


@pytest.mark.xfail(
    strict=True,
    raises=ValueError,
    reason="a Q2 detection range for the two-qubit family has no computable "
    "counterpart: the criterion's constant 56 and exponent 1/8 are defined "
    "only for two qutrits and no generalization is specified",
    )
def test_c5_literal_q2_boundary_for_rho_t():
    bisect_boundary(lambda t: q2_rmoment(rho_t(t)) > 0, 0.15, 0.45)


def test_c5_bound_entangled_family_undetected_by_both():
    grid = np.arange(0.05, 0.951, 0.05)
    q1s = [q1_realignment_moments(alpha_state(float(a))) for a in grid]
    q2s = [q2_rmoment(alpha_state(float(a))) for a in grid]
    assert max(q1s) <= 0
    assert max(q2s) <= 0
    ok(f"criterion 5b: Q1 <= 0 and Q2 <= 0 across alpha grid "
       f"(max Q1 {max(q1s):+.2e}, max Q2 {max(q2s):+.2e})")


# ---------------------------------------------------------------------------
# criterion 6: characteristic-polynomial coefficient oracles
# ---------------------------------------------------------------------------

def test_c6_rho_t_coefficient_closed_forms():
    for t in np.linspace(-0.78, 0.78, 40):
        co = newton_coefficients(realign(rho_t(float(t))).moments(4)).values
        want = [
            t + 7 / 8,
            (8 * t * t + 28 * t + 5) / 32,
            (7 * t * t + 5 * t) / 32,
            5 * t * t / 128,
        ]
        for k in range(4):
            assert abs(co[k + 1] - want[k]) <= 1e-10
    ok("criterion 6a: rho_t coefficients a1..a4 match closed forms at 1e-10 (40 pts)")


def test_c6_alpha_state_top_coefficient_vanishes():
    for alpha in np.linspace(0.05, 0.95, 19):
        co = newton_coefficients(realign(alpha_state(float(alpha))).moments(9)).values
        assert abs(co[9]) <= 1e-10
    ok("criterion 6b: a9(alpha) = 0 within 1e-10 (19 pts)")


# ---------------------------------------------------------------------------
# criterion 7: property suites
# ---------------------------------------------------------------------------

def test_c7_separable_bound_and_verdicts(separable_22, separable_33):
    states = separable_22 + separable_33
    assert len(states) == 1000
    for rho in states:
        assert realign(rho).trace_norm <= 1 + 1e-9
        for p in (0.0, 0.3, 0.7, 1.0):
            assert spa_r_verdict(rho, p) == Verdict.INCONCLUSIVE
    ok("criterion 7a: ||R||_1 <= 1 + 1e-9 and the separable bound holds at "
       "p in {0, 0.3, 0.7, 1} for 1000 seeded separable states")


def test_c7_realignment_involution_exact():
    for d in (2, 3):
        for seed in range(20):
            m = random_complex(rng_for(seed), d * d)
            assert np.array_equal(realign_matrix(realign_matrix(m, d, d), d, d), m)
    ok("criterion 7b: realignment involution exact on 40 random matrices")


def test_c7_newton_matches_direct_charpoly_oracle():
    for n in (4, 9):
        for seed in range(30):
            m, lam = random_real_spectrum(rng_for(1000 + seed), n)
            moments = [power_trace(m, k).real for k in range(1, n + 1)]
            got = newton_coefficients(moments).values
            want = elementary_symmetric(lam)
            for k in range(n + 1):
                assert abs(got[k] - want[k]) <= 1e-8 * max(1.0, abs(want[k]))
    ok("criterion 7c: moment recursion matches direct expansion at 1e-8 rel (60 matrices)")


def test_c7_lower_bound_below_oracle_minimum():
    for seed in range(500):
        n = 4 + (seed % 6)
        h = random_hermitian(rng_for(2000 + seed), n)
        lb = lambda_min_lower_bound(power_trace(h, 1).real, power_trace(h, 2).real, n)
        assert lb <= hermitian_eigenvalues(h)[0] + 1e-9
    ok("criterion 7d: moment bound below the oracle minimum on 500 Hermitian matrices")


def test_c7_spa_output_unit_trace(separable_22):
    for rho in separable_22[:50]:
        for p in (0.0, 0.25, 0.75, 1.0):
            assert abs(np.trace(apply_spa(rho, p)) - 1.0) <= 1e-12
    for t in np.linspace(-0.7, 0.7, 10):
        assert abs(np.trace(apply_spa(rho_t(float(t)), 0.4)) - 1.0) <= 1e-12
    ok("criterion 7e: SPA output has unit trace within 1e-12")


def test_c7_schmidt_symmetric_lemma_and_equivalence(schmidt_symmetric_states):
    from spar.linalg import trace_norm

    assert len(schmidt_symmetric_states) == 200
    p_grid = (0.0, 0.25, 0.5, 0.75, 0.9)  # p = 1 is the exact-tie endpoint
    for rho in schmidt_symmetric_states:
        plain = realignment_criterion(rho).verdict
        for p in p_grid:
            assert trace_norm(apply_spa(rho, p)) == pytest.approx(1.0, abs=1e-9)
            assert spa_r_verdict(rho, p) == plain
    ok("criterion 7f: SPA norm 1 within 1e-9 and verdict equivalence on 200 "
       "Schmidt-symmetric states")


def test_c7_error_bound_on_separable_ensemble(separable_22, separable_33):
    # the separable error bound presumes the mixing coefficient stays
    # nonnegative, i.e. p <= 1 - Tr[R]; it is checked across that window
    for rho in separable_22[:100] + separable_33[:100]:
        window = 1 - realign(rho).moment(1)
        for frac in (0.0, 0.5, 1.0):
            rep = error_suite(rho, frac * window)
            assert rep.score.value <= rep.score.bound + 1e-9
    ok("criterion 7g: separable error bound holds across its validity window "
       "(200 states x 3 p)")


# ---------------------------------------------------------------------------
# criterion 8: first-moment estimation
# ---------------------------------------------------------------------------

def test_c8_zero_offset_interval_exact():
    for s in (0.01, 0.2, 0.24999):
        iv = m1_interval_quadratic(EstimationInput(s=s, d=2, k=0.0))
        assert iv.lower == 0.0 and iv.upper == s
    ok("criterion 8a: zero-offset interval equals [0, s] exactly")


def test_c8_reference_interval_roots():
    iv = m1_interval_quadratic(EstimationInput(s=0.2, d=2, k=0.01))
    root = math.sqrt(0.16**2 - 4 * 0.002)
    assert abs(iv.lower - (0.16 - root) / 2) <= 1e-12
    assert abs(iv.upper - (0.16 + root) / 2) <= 1e-12
    ok("criterion 8b: reference interval matches analytic roots at 1e-12")


def test_c8_case_windows_disjoint_on_grid():
    for d in (2, 3):
        for s in np.linspace(0.0, 1 / d**2, 100):
            x = 1 - d * d * s
            lo = 2 - d * d * s - 2 * math.sqrt(max(0.0, x))
            hi = 2 - d * d * s + 2 * math.sqrt(max(0.0, x))
            for k in np.linspace(0.0, 1.0, 100):
                in_low = 0 <= d**4 * k <= lo
                in_high = hi <= d**4 * k <= d**4
                assert not (in_low and in_high)
    ok("criterion 8c: case windows disjoint on a 100x100 grid per dimension")


# ---------------------------------------------------------------------------
# the committed results/ CSVs are what scripts/reproduce_results.py writes
# ---------------------------------------------------------------------------

def test_reproduce_script_rewrites_results_byte_for_byte(tmp_path, monkeypatch, capsys):
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "reproduce_results", root / "scripts" / "reproduce_results.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT_DIR", str(tmp_path))
    assert script.main() == 0
    committed = sorted(path.name for path in (root / "results").glob("*.csv"))
    assert sorted(path.name for path in tmp_path.iterdir()) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (root / "results" / name).read_bytes(), name
    ok(f"results: reproduce_results.py rewrites all {len(committed)} CSVs byte for byte")


def test_benchmark_reference_digests_match_results():
    # the benchmark falls back to these digests when a checkout has no results/
    root = Path(__file__).resolve().parents[1]
    reference = json.loads((root / "benchmarks" / "results_sha256.json").read_text())
    committed = {
        path.name: [hashlib.sha256(path.read_bytes()).hexdigest(), path.read_bytes().count(b"\n") - 1]
        for path in sorted((root / "results").glob("*.csv"))
    }
    assert committed == reference
    ok(f"results: benchmarks/results_sha256.json pins all {len(committed)} CSVs")
