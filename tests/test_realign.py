import importlib
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spar import (
    DEFAULT,
    DomainError,
    alpha_state,
    bell_state,
    certify_completely_positive,
    is_schmidt_symmetric,
    isotropic,
    random_density,
    random_schmidt_symmetric,
    random_separable,
    realign,
    realign_matrix,
    realignment_criterion,
    rho_a,
    rho_t,
    spa_threshold,
    validate_density,
    realignment_moment,
)
import spar.linalg
import spar.states
from spar.linalg import power_trace, singular_values
from spar.realign import RealignedMatrix, Score, Verdict

from util import random_complex, random_hermitian, realign_blockwise, rng_for


def bell_density(d=2):
    phi = bell_state(d)
    return validate_density(np.outer(phi, phi.conj()), (d, d))


def test_realign_maximally_mixed():
    r = realign(validate_density(np.eye(4) / 4, (2, 2)))
    want_row = np.array([0.25, 0, 0, 0.25])
    assert np.allclose(r.matrix[0], want_row)
    assert np.allclose(r.matrix[3], want_row)
    assert np.allclose(r.matrix[1], 0)
    assert np.allclose(r.matrix[2], 0)
    assert r.trace_norm == pytest.approx(0.5, abs=1e-12)


def test_realign_bell_trace_norm():
    assert realign(bell_density()).trace_norm == pytest.approx(2.0, abs=1e-12)


def test_realigned_trace_of_rho_t():
    for t in np.linspace(-0.7, 0.7, 15):
        assert realign(rho_t(t)).moment(1) == pytest.approx(t + 7 / 8, abs=1e-12)


def test_trace_index_identity():
    rng = rng_for(11)
    for d in (2, 3):
        g = random_complex(rng, d * d)
        m = g @ g.conj().T
        m /= np.trace(m)
        rho = validate_density(m, (d, d))
        r = realign_matrix(rho.matrix, d, d)
        want = np.array([rho.matrix[i * d + i, k * d + k] for i in range(d) for k in range(d)])
        assert np.array_equal(np.diagonal(r), want)


def test_frobenius_norm_preserved():
    rng = rng_for(12)
    for dims in ((2, 2), (3, 3), (2, 3)):
        m = random_complex(rng, dims[0] * dims[1])
        r = realign_matrix(m, *dims)
        assert np.linalg.norm(r) == pytest.approx(np.linalg.norm(m), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]))
def test_involution_exact(seed, d):
    m = random_complex(rng_for(seed), d * d)
    assert np.array_equal(realign_matrix(realign_matrix(m, d, d), d, d), m)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]))
def test_linearity_exact(seed, d):
    rng = rng_for(seed)
    x = random_complex(rng, d * d)
    y = random_complex(rng, d * d)
    a, b = rng.normal(), rng.normal()
    assert np.array_equal(
        realign_matrix(a * x + b * y, d, d),
        a * realign_matrix(x, d, d) + b * realign_matrix(y, d, d),
    )


class TestBlockFormAgreement:
    """The index-permutation form is primary; the block/vec form must agree:
    entrywise on real input, up to conjugation on Hermitian input, and on
    every basis-independent quantity in general."""

    def test_equal_on_real_states(self):
        for t in (-0.5, 0.0, 0.4):
            m = rho_t(t).matrix
            assert np.array_equal(realign_matrix(m, 2, 2), realign_blockwise(m, 2, 2))

    def test_conjugate_on_hermitian_states(self):
        rng = rng_for(13)
        for dims in ((2, 2), (3, 3)):
            h = random_hermitian(rng, dims[0] * dims[1])
            assert np.array_equal(
                realign_blockwise(h, *dims), realign_matrix(h, *dims).conj()
            )

    def test_invariants_agree_in_general(self):
        rng = rng_for(14)
        m = random_complex(rng, 9)
        a = realign_matrix(m, 3, 3)
        b = realign_blockwise(m, 3, 3)
        assert np.allclose(singular_values(a), singular_values(b), atol=1e-12)
        assert np.trace(a) == pytest.approx(np.trace(b), abs=1e-12)
        for k in (2, 3):
            assert np.trace(np.linalg.matrix_power(a, k)) == pytest.approx(
                np.trace(np.linalg.matrix_power(b, k)), abs=1e-12
            )


def test_product_state_factorization():
    from spar.states import random_density

    rng = rng_for(15)
    for dims in ((2, 2), (3, 3), (2, 3)):
        rho_a_part = random_density(dims[0], rng)
        rho_b_part = random_density(dims[1], rng)
        rho = validate_density(np.kron(rho_a_part, rho_b_part), dims)
        norm = realign(rho).trace_norm
        want = np.linalg.norm(rho_a_part) * np.linalg.norm(rho_b_part)
        assert norm == pytest.approx(want, abs=1e-9)


def test_separable_bound_sample(separable_22, separable_33):
    for rho in separable_22[:50] + separable_33[:50]:
        assert realign(rho).trace_norm <= 1 + 1e-9


class TestRealignmentCriterion:
    def test_isotropic_entangled(self):
        assert realignment_criterion(isotropic(0.5)).verdict == Verdict.ENTANGLED

    def test_rho_t_entangled(self):
        assert realignment_criterion(rho_t(0.2)).verdict == Verdict.ENTANGLED

    def test_maximally_mixed_inconclusive(self):
        score = realignment_criterion(validate_density(np.eye(4) / 4, (2, 2)))
        assert score.verdict == Verdict.INCONCLUSIVE
        assert score.value == pytest.approx(0.5, abs=1e-12)
        assert score.bound == 1.0


class TestSchmidtSymmetric:
    def test_bell_state(self):
        assert is_schmidt_symmetric(bell_density())

    def test_rho_t_negative(self):
        # realigned matrix has negative eigenvalues, so trace < trace norm
        assert not is_schmidt_symmetric(rho_t(-0.5))

    def test_maximally_mixed(self):
        # R is a PSD rank-one projector scaled by 1/2: trace equals trace norm
        assert is_schmidt_symmetric(validate_density(np.eye(4) / 4, (2, 2)))

    def test_random_ensemble(self, schmidt_symmetric_states):
        assert all(is_schmidt_symmetric(rho) for rho in schmidt_symmetric_states[:40])

    def test_isotropic_family_for_nonnegative_parameter(self):
        # realigned isotropic is PSD for beta >= 0, not below
        for beta in np.linspace(0.0, 1.0, 11):
            assert is_schmidt_symmetric(isotropic(float(beta)))
        assert not is_schmidt_symmetric(isotropic(-0.1))

    def test_unequal_dimensions(self):
        # |00><00| on 2 x 3: R is rectangular with trace 1 = ||R||_1, but a sum
        # of A_i (x) conj(A_i) needs dimA == dimB
        m = np.zeros((6, 6))
        m[0, 0] = 1.0
        assert not is_schmidt_symmetric(validate_density(m, (2, 3)))


class TestZhangMoments:
    def test_maximally_mixed(self):
        rho = validate_density(np.eye(4) / 4, (2, 2))
        assert realignment_moment(rho, 2) == pytest.approx(0.25, abs=1e-12)

    def test_first_moment_is_trace_norm(self):
        for seed in range(5):
            rho = random_separable(2, 2, terms=3, seed=seed)
            assert realignment_moment(rho, 1) == pytest.approx(realign(rho).trace_norm, abs=1e-12)

    def test_bell(self):
        assert realignment_moment(bell_density(), 2) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            realignment_moment(bell_density(), 0)


def test_moments_are_real_and_cached():
    r = realign(rho_t(-0.3))
    m = r.moments(4)
    assert m.dtype == float
    assert r.moment(2) == m[1]


@pytest.mark.parametrize("k", [0, -1])
def test_moment_refuses_an_order_below_one(k):
    r = realign(rho_t(-0.3))
    with pytest.raises(ValueError, match="moment requires k >= 1"):
        r.moment(k)
    r.moments(4)  # a filled cache must not answer m_4 for k = 0, m_3 for k = -1
    with pytest.raises(ValueError, match="moment requires k >= 1"):
        r.moment(k)


def test_moments_require_square_dims():
    rho = random_separable(2, 3, terms=2, seed=3)
    with pytest.raises(ValueError):
        realign(rho).moment(1)


def _moment_states():
    states = [rho_t(t) for t in (-0.7, -0.2, 0.0, 0.3, 0.79)]
    states += [rho_a(a) for a in (0.71, 0.85, 1.0)]
    states += [alpha_state(a) for a in (0.1, 0.5, 0.9)]
    for d in range(2, 7):
        states += [isotropic(b, d) for b in (-0.5 / (d * d - 1), 0.3, 0.9)]
        states += [random_schmidt_symmetric(d, 1 + seed % 4, seed=50_000 + seed) for seed in range(3)]
    return states


@pytest.mark.parametrize("rho", _moment_states(), ids=repr)
def test_running_product_moments_match_power_trace_exactly(rho):
    # results/ depends on the running product reproducing the per-k power
    # loop bit for bit, so this compares with ==, not approx
    r = realign(rho)
    n = rho.dim_a**2
    want = [power_trace(r.matrix, k).real for k in range(1, n + 1)]
    assert list(r.moments(n)) == want
    # a fresh analysis filled in two steps agrees too
    r = realign(rho)
    assert r.moment(2) == want[1]
    assert list(r.moments(n)) == want


@pytest.mark.parametrize("d", range(2, 7))
def test_moments_are_real_up_to_matmul_rounding(d):
    # conj(R) = P R P (P the swap) for the exactly Hermitian stored matrix, so
    # Tr R^k is real and its computed imaginary part is rounding alone: the
    # premise on which the moments keep their real parts unchecked
    n = d * d
    for seed in range(3):
        for rho in (validate_density(random_density(n, seed=seed), (d, d)),
                    random_schmidt_symmetric(d, 3, seed=seed)):
            power = r = realign(rho).matrix
            for k in range(1, n + 1):
                assert abs(np.trace(power).imag) <= k * n * np.finfo(float).eps
                power = power @ r


def test_realigned_matrix_keeps_its_state():
    rho = rho_t(0.3)
    r = realign(rho)
    assert r.state is rho
    assert (r.dim_a, r.dim_b) == (2, 2)
    assert r.singular_values is r.singular_values
    assert r.eigenvalues is r.eigenvalues


def test_caches_are_neither_constructor_arguments_nor_settable():
    r = realign(rho_t(-0.3))
    # only realign builds an analysis, so R is always the state's own: a
    # separable isotropic state with R = 2 I would read ||R||_1 = 18
    calls = [((), {}), ((r.state, r.matrix), {}), ((isotropic(0.1), 2 * np.eye(9)), {})]
    calls += [((r.state, r.matrix), {cache: None})
              for cache in ("_moments", "_power", "_singular_values")]
    for args, kwargs in calls:
        with pytest.raises(TypeError, match="built only by realign"):
            RealignedMatrix(*args, **kwargs)
    r.moments(4)
    arrays = {"matrix": r.matrix, "singular_values": r.singular_values,
              "eigenvalues": r.eigenvalues}
    values = {"state": r.state, **arrays, "_moments": [], "spa_trace": 1.0}
    for name, value in values.items():
        # a frozen dataclass refuses with FrozenInstanceError, an AttributeError
        with pytest.raises(AttributeError):
            setattr(r, name, value)
    for name, array in arrays.items():
        assert not array.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    assert list(r.moments(4)) == [power_trace(r.matrix, k).real for k in range(1, 5)]


@pytest.mark.parametrize("rho, exact", [
    (isotropic(0.3), True), (isotropic(0.9, 6), True), (rho_t(-0.3), False),
    (alpha_state(0.5), False), (random_schmidt_symmetric(3, 3, seed=0), False),
], ids=repr)
def test_every_r_is_diagonalized_by_the_general_eigensolver(rho, exact):
    r = realign(rho)
    m = r.matrix
    assert np.array_equal(m, m.conj().T) == exact
    # an exactly Hermitian R, one Hermitian up to rounding (the Schmidt-symmetric
    # draw) and a non-Hermitian one alike
    assert np.array_equal(r.eigenvalues, np.linalg.eigvals(m))
    assert r.eigenvalues.dtype == np.complex128


def test_a_forged_trace_cannot_certify_a_refused_state():
    # isotropic(-1/8) has Tr R = 0 up to rounding: the domain gate refuses it
    r = realign(isotropic(-0.125))
    with pytest.raises(AttributeError):
        r.spa_trace = 1.0
    with pytest.raises(DomainError, match="is not positive"):
        spa_threshold(r)
    with pytest.raises(DomainError, match="is not positive"):
        certify_completely_positive(spa_threshold(r), 0.5)


def test_singular_values_with_caches_r_once_and_returns_the_others():
    r = realign(alpha_state(0.4))
    other = np.eye(9) / 9
    stack = np.stack((other, r.matrix)).astype(complex)  # R last, as spa._mixture lays it out
    before = stack.copy()
    [sigma] = r.singular_values_with(stack)
    assert np.array_equal(stack, before)
    assert np.array_equal(sigma, singular_values(other))
    cached = r.singular_values
    assert np.array_equal(cached, singular_values(r.matrix))
    assert not cached.flags.writeable
    r.singular_values_with(np.stack((other, r.matrix)).astype(complex))
    assert r.singular_values is cached


def test_realign_trusts_a_validated_state(monkeypatch, separable_22, separable_33,
                                          schmidt_symmetric_states):
    states = [rho_t(-0.5), rho_t(0.3), rho_a(0.8), isotropic(-0.125), isotropic(0.3, 5),
              alpha_state(0.4), bell_density(3), random_separable(2, 3, terms=3, seed=8),
              random_separable(3, 2, terms=2, seed=9), *separable_22[:50], *separable_33[:50],
              *schmidt_symmetric_states[::4]]
    want = [realign_matrix(rho.matrix, rho.dim_a, rho.dim_b) for rho in states]

    def checked_again(*args):
        raise AssertionError("a validated state was checked again")

    monkeypatch.setattr(spar.linalg, "as_matrix", checked_again)
    # the package attribute spar.realign is the function; patch its module
    for module in (importlib.import_module("spar.realign"), spar.states):
        monkeypatch.setattr(module, "require_dims", checked_again)
    for rho, expected in zip(states, want):
        r = realign(rho).matrix
        assert (r.shape, r.dtype, r.tobytes()) == (expected.shape, expected.dtype,
                                                   expected.tobytes())


def test_criteria_accept_the_realigned_matrix():
    for rho in (rho_t(-0.5), isotropic(0.2), random_separable(2, 3, terms=2, seed=5)):
        r = realign(rho)
        assert realignment_criterion(r) == realignment_criterion(rho)
        assert is_schmidt_symmetric(r) == is_schmidt_symmetric(rho)
        assert realignment_moment(r, 3) == realignment_moment(rho, 3)


def test_a_score_is_a_record_not_a_tuple():
    # unpacked as a pair it would bind the bound where the value belongs
    score = Score(1.0, 2.0)
    with pytest.raises(TypeError):
        _, value = score
    with pytest.raises(TypeError):
        score[0]
    with pytest.raises(TypeError):
        tuple(score)
    assert score != (1.0, 2.0)
    assert repr(score) == "Score(value=1.0, bound=2.0)"
    assert score == Score(1.0, 2.0) and hash(score) == hash(Score(1.0, 2.0))
    assert score != Score(2.0, 1.0)


@given(st.floats(), st.floats())
@example(1.0 + DEFAULT.verdict, 1.0)  # a tie is inconclusive
@example(0.5 + DEFAULT.verdict, 0.5)
@example(float("nan"), 1.0)  # NaN in either field is inconclusive
@example(2.0, float("nan"))
@example(float("nan"), float("nan"))
@settings(max_examples=300, deadline=None)
def test_verdict_margin_is_positive_exactly_when_the_score_exceeds_bound_plus_tol(s, b):
    entangled = s > b + DEFAULT.verdict
    score = Score(s, b)
    # the margin is this one expression, bit for bit
    assert struct.pack("<d", score.margin) == struct.pack("<d", s - (b + DEFAULT.verdict))
    assert (score.margin > 0) == entangled
    assert (score.verdict == Verdict.ENTANGLED) == entangled
