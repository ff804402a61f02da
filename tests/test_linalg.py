import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spar import DEFAULT, StateValidationError, linalg, validate_density
from spar.realign import realign_matrix
from spar.states import read_state_file, rho_t

from util import random_complex, random_hermitian, random_unitary, rng_for, trace_norm


# inputs that the matrix rule refuses: the input, the check and message that
# every function gives (None: numpy's own text), whether singular_values takes
# it (a stack, a rectangular matrix), and the fault in the state-file layout
BAD_MATRICES = {
    "ndim_0": (0.25, "shape", "expected a 2-D matrix, got ndim=0", False, None),
    "ndim_1": (np.zeros(4), "shape", "expected a 2-D matrix, got ndim=1", False,
               "[[0, 0], [0, 0], [0, 0]]"),
    "ndim_3": (np.zeros((1, 2, 2)), "shape", "expected a 2-D matrix, got ndim=3", True, None),
    "ragged": ([[0.5, 0], [0.5]], "finite", None, False, "[[0.5, 0], [0.5]]"),
    "inf": (np.diag([np.inf, 0.0, 0.0, 0.0]), "finite", "matrix contains non-finite entries",
            False, "[[1e400, 0], [0, 0], [0, 0], [0, 0]]"),
    "not_square": (np.ones((2, 3)), "shape", "matrix is not square: (2, 3)", True, None),
}
# the functions of one square matrix
SQUARE_FUNCTIONS = {
    "validate_density": lambda m: validate_density(m, (2, 2)),
    "realign_matrix": lambda m: realign_matrix(m, 2, 2),
    "general_eigenvalues": linalg.general_eigenvalues,
    "hermitian_eigenvalues": linalg.hermitian_eigenvalues,
    "power_trace": lambda m: linalg.power_trace(m, 1),
}


def refusal(call, m) -> tuple:
    with pytest.raises(StateValidationError) as err:
        call(m)
    return err.value.check, str(err.value)


@pytest.mark.parametrize("case", sorted(BAD_MATRICES))
def test_every_function_refuses_a_matrix_with_one_check_and_message(case):
    m, check, message, svd_takes, _ = BAD_MATRICES[case]
    calls = dict(SQUARE_FUNCTIONS)
    if not svd_takes:
        calls["singular_values"] = linalg.singular_values
    refusals = {name: refusal(call, m) for name, call in calls.items()}
    assert len(set(refusals.values())) == 1, refusals
    [(got_check, text)] = set(refusals.values())
    assert got_check == check
    if message is not None:
        assert text == f"{check}: {message}"


@pytest.mark.parametrize("case", sorted(name for name, row in BAD_MATRICES.items() if row[4]))
def test_a_state_file_fails_the_same_check(tmp_path, case):
    # the pair layout is a flat list of [re, im] pairs, reshaped square: an ndim=1
    # or ragged matrix shows there as a pair count that is not a square or a
    # pair that is not two numbers, with the reader's own message; an
    # infinite entry is the same fault with the same message
    m, check, _, _, pairs = BAD_MATRICES[case]
    path = tmp_path / "state.json"
    path.write_text(f'{{"dims": [2, 2], "matrix": {pairs}}}')
    got_check, text = refusal(read_state_file, str(path))
    assert got_check == check
    if case == "inf":
        assert (got_check, text) == refusal(linalg.as_matrix, m)


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


@pytest.mark.parametrize("defect,accepted", [(2e-10, False), (5e-11, True)])
def test_hermitian_eigenvalues_shares_the_state_slack(defect, accepted):
    # DEFAULT.validation: validate_density refuses the same entrywise defect
    m = np.array([[0.5, defect], [0.0, 0.5]], dtype=complex)
    assert (linalg.hermiticity_defect(m) > DEFAULT.validation) == (not accepted)
    if accepted:
        assert np.allclose(linalg.hermitian_eigenvalues(m), [0.5, 0.5])
        validate_density(m, (2, 1))
    else:
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.hermitian_eigenvalues(m)
        with pytest.raises(StateValidationError, match="hermitian"):
            validate_density(m, (2, 1))


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
    assert trace_norm(np.eye(4)) == pytest.approx(4.0)
    assert trace_norm(np.diag([1.0, -1.0, 0.0])) == pytest.approx(2.0)


@pytest.mark.parametrize("n", [2, 4, 9])
def test_stacked_singular_values_equal_per_matrix(n):
    rng = rng_for(n)
    stack = np.stack([random_complex(rng, n) for _ in range(7)])
    sigma = linalg.singular_values(stack)
    assert sigma.shape == (7, n)
    # a stack's norms are its rows summed, each the trace norm of its matrix
    for m, row, norm in zip(stack, sigma, sigma.sum(axis=-1).tolist()):
        assert np.array_equal(row, linalg.singular_values(m))
        assert norm == trace_norm(m)


def test_trace_norm_takes_one_matrix_square_or_not():
    assert trace_norm(np.ones((2, 3))) == pytest.approx(np.sqrt(6.0), abs=1e-12)
    assert type(trace_norm(np.eye(3))) is float
    for stack in (np.zeros((2, 3, 3)), np.zeros((0, 3, 3))):
        assert refusal(trace_norm, stack) == (
            "shape", "shape: expected a 2-D matrix, got ndim=3")
    with pytest.raises(ValueError):
        linalg.singular_values(np.ones(3))


def test_trace_norm_realigned_bell():
    bell = np.zeros(4)
    bell[[0, 3]] = 1 / np.sqrt(2)
    r = realign_matrix(np.outer(bell, bell), 2, 2)
    assert trace_norm(r) == pytest.approx(2.0, abs=1e-12)


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
    assert trace_norm(u @ m @ v) == pytest.approx(trace_norm(m), abs=1e-9)


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
