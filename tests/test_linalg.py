import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spar import linalg
from spar.realign import realign_matrix
from spar.states import rho_t

from util import random_complex, random_hermitian, random_unitary, rng_for


def test_hermitian_eigenvalues_diagonal():
    assert np.allclose(linalg.hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])


def test_hermitian_eigenvalues_pauli_x():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(linalg.hermitian_eigenvalues(x), [-1, 1])


def test_hermitian_eigenvalues_rho_t_at_zero():
    # diagonal state: spectrum read off the diagonal
    assert np.allclose(
        linalg.hermitian_eigenvalues(rho_t(0.0).matrix), [0, 1 / 8, 1 / 4, 5 / 8]
    )


def test_hermitian_eigenvalues_rejects_bad_input():
    with pytest.raises(ValueError):
        linalg.hermitian_eigenvalues(np.ones((2, 3)))
    with pytest.raises(ValueError):
        linalg.hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


def test_general_eigenvalues_examples():
    assert np.allclose(sorted(linalg.general_eigenvalues(np.diag([2.0, -1.0])).real), [-1, 2])
    nilpotent = np.array([[0, 1], [0, 0]], dtype=complex)
    assert np.allclose(linalg.general_eigenvalues(nilpotent), [0, 0])
    companion = np.array([[0, 2], [1, 1]], dtype=float)  # x^2 - x - 2
    assert np.allclose(sorted(linalg.general_eigenvalues(companion).real), [-1, 2])


def test_singular_values_examples():
    assert np.allclose(linalg.singular_values(np.eye(5)), np.ones(5))
    assert np.allclose(linalg.singular_values(np.diag([-3.0, 4.0])), [4, 3])
    rng = rng_for(7)
    u = random_complex(rng, 4, 1).ravel()
    v = random_complex(rng, 4, 1).ravel()
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    sig = linalg.singular_values(np.outer(u, v))
    assert np.allclose(sig, [1, 0, 0, 0], atol=1e-12)


def test_singular_value_count_rectangular():
    rng = rng_for(8)
    assert len(linalg.singular_values(random_complex(rng, 3, 5))) == 3


def test_trace_norm_examples():
    assert linalg.trace_norm(np.eye(4)) == pytest.approx(4.0)
    assert linalg.trace_norm(np.diag([1.0, -1.0, 0.0])) == pytest.approx(2.0)


@pytest.mark.parametrize("n", [2, 4, 9])
def test_stacked_singular_values_and_trace_norms_equal_per_matrix(n):
    rng = rng_for(n)
    stack = np.stack([random_complex(rng, n) for _ in range(7)])
    sigma = linalg.singular_values(stack)
    norms = linalg.trace_norm(stack)
    assert sigma.shape == (7, n) and norms.shape == (7,)
    for m, row, norm in zip(stack, sigma, norms.tolist()):
        assert np.array_equal(row, linalg.singular_values(m))
        assert norm == linalg.trace_norm(m)


def test_trace_norm_of_empty_stack_and_bad_rank():
    assert linalg.trace_norm(np.zeros((0, 3, 3))).shape == (0,)
    with pytest.raises(ValueError):
        linalg.singular_values(np.ones(3))


def test_trace_norm_realigned_bell():
    bell = np.zeros(4)
    bell[[0, 3]] = 1 / np.sqrt(2)
    r = realign_matrix(np.outer(bell, bell), 2, 2)
    assert linalg.trace_norm(r) == pytest.approx(2.0, abs=1e-12)


def test_power_trace_examples():
    assert linalg.power_trace(np.eye(4), 5) == pytest.approx(4.0)
    assert linalg.power_trace(np.diag([2.0, -1.0]), 2) == pytest.approx(5.0)
    r = realign_matrix(rho_t(0.5).matrix, 2, 2)
    assert linalg.power_trace(r, 1) == pytest.approx(1.375, abs=1e-14)


def test_power_trace_validation():
    with pytest.raises(ValueError):
        linalg.power_trace(np.eye(2), 0)
    with pytest.raises(ValueError):
        linalg.power_trace(np.ones((2, 3)), 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 7))
def test_trace_norm_unitary_invariance(seed, n):
    rng = rng_for(seed)
    m = random_complex(rng, n)
    u = random_unitary(rng, n)
    v = random_unitary(rng, n)
    assert linalg.trace_norm(u @ m @ v) == pytest.approx(linalg.trace_norm(m), abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 7))
def test_singular_values_square_to_gram_eigenvalues(seed, n):
    rng = rng_for(seed)
    m = random_complex(rng, n)
    sig = linalg.singular_values(m)
    gram = linalg.hermitian_eigenvalues(m.conj().T @ m)
    assert np.allclose(sig**2, gram[::-1], atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 7))
def test_general_matches_hermitian_on_hermitian_input(seed, n):
    rng = rng_for(seed)
    h = random_hermitian(rng, n)
    general = np.sort(linalg.general_eigenvalues(h).real)
    assert np.allclose(general, linalg.hermitian_eigenvalues(h), atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 9))
def test_power_trace_matches_eigenvalue_power_sums(seed, n):
    rng = rng_for(seed)
    m = random_complex(rng, n)
    eigs = linalg.general_eigenvalues(m)
    for k in (1, 2, 3):
        want = np.sum(eigs**k)
        got = linalg.power_trace(m, k)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 7))
def test_spectrum_contracts(seed, n):
    rng = rng_for(seed)
    h = random_hermitian(rng, n)
    eigs = linalg.hermitian_eigenvalues(h)
    assert len(eigs) == n
    assert np.all(np.diff(eigs) >= 0)
    trace = np.trace(h).real
    assert abs(np.sum(eigs) - trace) <= 1e-9 * max(1.0, abs(trace))
    general = linalg.general_eigenvalues(h)
    det = np.linalg.det(h)
    assert abs(np.prod(general) - det) <= 1e-8 * max(1.0, abs(det))
