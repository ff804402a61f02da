import builtins
import dataclasses
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spar import (
    RHO_T_MAX,
    DensityMatrix,
    EstimationInput,
    StateValidationError,
    alpha_state,
    bell_state,
    isotropic,
    random_density,
    random_schmidt_symmetric,
    random_separable,
    read_state_file,
    realign,
    realign_matrix,
    realignment_criterion,
    rho_a,
    rho_t,
    validate_density,
    write_state_file,
)
import spar.linalg
from spar.cli import main
from spar.linalg import hermitian_eigenvalues
from spar.moment_estimation import swap_operator
from spar.realign import Verdict

from util import HEX_REFUSALS, hex_entries

# random_separable(2, 3, 3, seed=8) as [re, im] pairs, each float its
# shortest repr, and as the hex that write_state_file gives it
DATA = Path(__file__).parent / "data"
PAIR_FILE, HEX_FILE = DATA / "separable23_pairs.json", DATA / "separable23_hex.json"
# doubles that a lossy encoding would change: signed zeros, subnormals and
# the least normal double
EDGE_DOUBLES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, -1.23e-320, 7.5e-310, 2.2250738585072014e-308, -1e-300])
ZEROS = st.sampled_from([0.0, -0.0])


def raw_rho_t(t):
    return 0.5 * np.array(
        [[1.25, 0, 0, t], [0, 0, 0, 0], [0, 0, 0.25, 0], [t, 0, 0, 0.5]], dtype=complex
    )


# dims that fail the one dimension rule, and its message, whether they are given
# to validate_density or realign_matrix or read from a state file
BAD_DIMS = {
    "size": (np.eye(3) / 3, (2, 2), "matrix size 3 != dimA*dimB = 4"),
    "negative": (np.eye(4) / 4, (-2, -2), "must be positive integers, got -2 x -2"),
    "float": (np.eye(4) / 4, (2.0, 2.0), "must be positive integers, got 2.0 x 2.0"),
    "fraction": (np.eye(4) / 4, (2.9, 2.2), "must be positive integers, got 2.9 x 2.2"),
    "bool": (np.eye(4) / 4, (True, 4), "must be positive integers, got True x 4"),
    "one": (np.eye(4) / 4, [2], "must be a pair (dimA, dimB), got [2]"),
    "int": (np.eye(4) / 4, 4, "must be a pair (dimA, dimB), got 4"),
    "three": (np.eye(4) / 4, [2, 2, 1], "must be a pair (dimA, dimB), got [2, 2, 1]"),
    "none": (np.eye(4) / 4, None, "must be a pair (dimA, dimB), got None"),
    "file_string": (np.eye(4) / 4, ["a", 2], "must be positive integers, got a x 2"),
    "file_fraction": (np.eye(4) / 4, [2.7, 2], "must be positive integers, got 2.7 x 2"),
    "file_bool": (np.eye(4) / 4, [True, 4], "must be positive integers, got True x 4"),
    "file_float": (np.eye(4) / 4, [2, 2.0], "must be positive integers, got 2 x 2.0"),
    "file_null": (np.eye(4) / 4, [2, None], "must be positive integers, got 2 x None"),
}


class TestValidateDensity:
    def test_accepts_maximally_mixed(self):
        rho = validate_density(np.eye(4) / 4, (2, 2))
        assert (rho.dim_a, rho.dim_b) == (2, 2)

    def test_owns_a_read_only_copy_of_the_matrix(self):
        m = np.eye(4, dtype=complex) / 4
        rho = validate_density(m, (2, 2))
        assert rho.matrix is not m
        assert not rho.matrix.flags.writeable
        m[0, 3] = m[3, 0] = 0.5  # the source is no longer PSD
        assert np.array_equal(rho.matrix, np.eye(4) / 4)
        score = realignment_criterion(rho)
        assert (score.verdict, score.value) == (Verdict.INCONCLUSIVE, 0.5)

    def test_keeps_the_signed_zeros_of_exactly_hermitian_input(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1], m[1, 0] = complex(-0.0, 0.0), complex(-0.0, -0.0)
        m[2, 3], m[3, 2] = complex(0.0, -0.0), complex(0.0, 0.0)
        rho = validate_density(m, (2, 2))
        assert rho.matrix.tobytes() == m.tobytes()
        assert validate_density(rho.matrix, (2, 2)).matrix.tobytes() == m.tobytes()

    def test_rejects_non_square(self):
        with pytest.raises(StateValidationError) as err:
            validate_density(np.ones((2, 3)), (2, 3))
        assert err.value.check == "shape"

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(StateValidationError) as err:
            validate_density(np.eye(4) / 4, (2, 3))
        assert err.value.check == "dims"

    @pytest.mark.parametrize("case", sorted(BAD_DIMS))
    def test_one_dimension_rule_for_states_realignment_and_files(self, case, tmp_path, capsys):
        m, dims, message = BAD_DIMS[case]
        path = tmp_path / "state.json"
        flat = np.asarray(m, dtype=complex).reshape(-1)
        path.write_text(json.dumps({"dims": dims, "matrix": [[z.real, z.imag] for z in flat]}))
        calls = [lambda: validate_density(m, dims), lambda: read_state_file(path)]
        if isinstance(dims, tuple | list) and len(dims) == 2:
            calls.append(lambda: realign_matrix(m, *dims))
        refusals = set()
        for call in calls:
            with pytest.raises(StateValidationError) as err:
                call()
            refusals.add((err.value.check, str(err.value)))
        assert refusals == {("dims", f"dims: {message}")}
        assert main(["analyze", "--state", str(path), "--p", "0.3"]) == 2
        assert capsys.readouterr() == ("", f"error: invalid state: dims: {message}\n")

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 1e-6
        with pytest.raises(StateValidationError) as err:
            validate_density(m, (2, 2))
        assert err.value.check == "hermitian"

    @pytest.mark.parametrize("m,trace", [
        (np.eye(4), "4.0"),
        (np.eye(4, dtype=complex) / 2, "2.0"),  # named as a real number, not (2+0j)
    ])
    def test_rejects_bad_trace(self, m, trace):
        with pytest.raises(StateValidationError) as err:
            validate_density(m, (2, 2))
        assert err.value.check == "trace"
        assert str(err.value) == f"trace: trace = {trace} is not 1 within 1.0e-10"

    def test_rejects_negative_eigenvalue(self):
        # the rho_t matrix just past its validity edge
        with pytest.raises(StateValidationError) as err:
            validate_density(raw_rho_t(0.9), (2, 2))
        assert err.value.check == "psd"

    def test_rejects_nan(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 0] = np.nan
        with pytest.raises(StateValidationError) as err:
            validate_density(m, (2, 2))
        assert err.value.check == "finite"

    def test_scans_once_and_takes_one_hermiticity_defect(self, monkeypatch):
        m = isotropic(0.3, 6).matrix
        scans, defects = [], []
        isfinite, defect = np.isfinite, spar.linalg.hermiticity_defect
        monkeypatch.setattr(np, "isfinite", lambda a: scans.append(a) or isfinite(a))
        monkeypatch.setattr(spar.linalg, "hermiticity_defect",
                            lambda a: defects.append(a) or defect(a))
        rho = validate_density(m, (6, 6))
        assert (len(scans), len(defects)) == (1, 1)
        assert np.array_equal(rho.spectrum, hermitian_eigenvalues(m))


    @pytest.mark.parametrize("build", [
        # realign's reshape failed on this one, and realigned the NaN one
        lambda: DensityMatrix(2, 2, np.eye(3), np.zeros(3)),
        lambda: DensityMatrix(dim_a=2, dim_b=2, matrix=np.full((4, 4), np.nan),
                              spectrum=np.zeros(4)),
        lambda: dataclasses.replace(rho_t(0.3), matrix=np.full((4, 4), np.nan)),
    ], ids=["wrong_size", "nan", "replace"])
    def test_is_the_only_way_to_build_a_state(self, build):
        with pytest.raises(TypeError, match="^a DensityMatrix is built only by validate_density$"):
            build()


def slack_state(d=6):
    """I/d^2 plus 0.495e-10 i at each (ii, kk) and (kk, ii), i != k: an
    anti-Hermitian defect of 0.99e-10, within the validation slack. Kept as
    given, its realigned trace would read 1/d + 1.485e-9 i at d = 6."""
    m = np.eye(d * d, dtype=complex) / (d * d)
    for i in range(d):
        for k in range(d):
            if i != k:
                m[i * d + i, k * d + k] = 0.495e-10j
    return m


def signed_zero_rho_t():
    """rho_t(0.3) as given, with zeros of either sign in both parts of its empty row."""
    m = raw_rho_t(0.3)
    m[1, 0], m[0, 1] = complex(-0.0, -0.0), complex(-0.0, 0.0)
    m[1, 2], m[2, 1] = complex(0.0, -0.0), complex(-0.0, -0.0)
    return m


def hermitian_inputs():
    """Seeded Ginibre, separable and Schmidt-symmetric input at d = 2..6, and
    a hand-built input with a Hermiticity defect of 0.99e-10."""
    for d in range(2, 7):
        yield pytest.param(random_density(d * d, seed=d), (d, d), id=f"ginibre{d}")
        yield pytest.param(random_separable(d, d, 3, seed=d).matrix, (d, d), id=f"separable{d}")
        yield pytest.param(random_schmidt_symmetric(d, 3, seed=d).matrix, (d, d), id=f"schmidt{d}")
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.99e-10
    yield pytest.param(m, (2, 2), id="defect")


def overflowing(n, entry):
    """I/n with ``entry`` at (0, n - 1) and its conjugate at (n - 1, 0)."""
    m = np.eye(n, dtype=complex) / n
    m[0, n - 1], m[n - 1, 0] = entry, np.conj(entry)
    return m


class TestHermitianPart:
    @pytest.mark.parametrize("m,dims", hermitian_inputs())
    def test_stores_the_exactly_hermitian_part(self, m, dims):
        rho = validate_density(m, dims)
        h = rho.matrix
        assert np.array_equal(h, h.conj().T)
        assert np.allclose(h, (m + m.conj().T) / 2, rtol=0, atol=1e-16)
        assert np.array_equal(rho.spectrum, np.linalg.eigvalsh(h))

    @pytest.mark.parametrize("rho", [rho_t(-0.7), rho_t(0.3), rho_a(0.8), alpha_state(0.4)]
                             + [isotropic(0.3, d) for d in range(2, 7)], ids=repr)
    def test_revalidating_a_family_state_keeps_its_bytes(self, rho):
        again = validate_density(rho.matrix, (rho.dim_a, rho.dim_b))
        assert again.matrix.tobytes() == rho.matrix.tobytes()

    def test_slack_state_has_a_real_positive_realigned_trace(self, tmp_path, capsys):
        rho = validate_density(slack_state(), (6, 6))
        assert np.array_equal(rho.matrix, np.eye(36) / 36)
        assert realign(rho).spa_trace == 1 / 6
        flat = slack_state().reshape(-1)
        path = tmp_path / "slack.json"
        path.write_text(json.dumps({"dims": [6, 6], "matrix": [[z.real, z.imag] for z in flat]}))
        assert main(["analyze", "--state", str(path), "--p", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["realignment"]["trace"] == 0.16666666666666666

    @pytest.mark.parametrize("m,dims", [*hermitian_inputs(), pytest.param(
        signed_zero_rho_t(), (2, 2), id="signed_zeros")])
    def test_normal_entries_give_the_doubles_of_halving_first(self, m, dims):
        # summing first changes only what halving first rounds: an odd subnormal
        halved = np.array(m, dtype=complex)
        halved.view(np.float64)[...] *= 0.5
        assert validate_density(m, dims).matrix.tobytes() == (halved + halved.conj().T).tobytes()

    @pytest.mark.parametrize("entry", [1e-323, 3e-323, complex(0, -5e-323)])
    def test_odd_subnormal_keeps_its_bits(self, entry, tmp_path):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = entry
        rho = validate_density(m, (1, 2))
        # (M + M^dag)/2 of entry and 0 is entry/2 at both places, exactly
        assert rho.matrix[0, 1] == rho.matrix[1, 0].conjugate() == entry / 2
        again = validate_density(rho.matrix, (1, 2))
        assert again.matrix.tobytes() == rho.matrix.tobytes()
        path = tmp_path / "state.json"
        write_state_file(path, rho)
        assert read_state_file(path).matrix.tobytes() == rho.matrix.tobytes()

    @pytest.mark.parametrize("m,dims,check", [
        ([[0.5, 1e308], [1e308, 0.5]], (1, 2), "psd"),  # the sum is inf off the diagonal
        ([[0.5, 1e308j], [-1e308j, 0.5]], (1, 2), "psd"),
        ([[1.7e308, 0], [0, 0.5]], (1, 2), "trace"),  # inf on the diagonal
        ([[1e308, 0], [0, -1e308 + 1]], (1, 2), "trace"),  # opposite infinities: a NaN trace
        # past 2 x 2 the eigensolver does not converge on an inf entry
        (overflowing(3, 1e308), (1, 3), "psd"),
        (overflowing(4, 1e308), (2, 2), "psd"),
        (overflowing(4, -1e308j), (2, 2), "psd"),
        (overflowing(9, complex(1e308, 1e308)), (3, 3), "psd"),
    ])
    def test_refuses_an_entry_whose_sum_overflows(self, m, dims, check, tmp_path, capsys):
        # (M + M^dag) overflows here; it is refused, with no warning, read
        # from a hex state file as well, and `analyze --state` exits 2
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dims": list(dims), "matrix": hex_entries(m)}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: validate_density(m, dims), lambda: read_state_file(path)):
                with pytest.raises(StateValidationError) as err:
                    call()
                assert err.value.check == check
            assert main(["analyze", "--state", str(path), "--p", "0.3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: invalid state: {check}: ")


class TestFamilies:
    def test_rho_t_trace_and_range(self):
        for t in np.linspace(-RHO_T_MAX, RHO_T_MAX, 50):
            assert np.trace(rho_t(t).matrix).real == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            rho_t(0.8)

    def test_rho_t_boundary_eigenvalue_is_zero(self):
        eigs = hermitian_eigenvalues(rho_t(RHO_T_MAX).matrix)
        assert abs(eigs[0]) <= 1e-9

    def test_rho_t_zero_is_separable_diagonal(self):
        rho = rho_t(0.0)
        assert np.allclose(rho.matrix, np.diag(np.diag(rho.matrix)))
        assert realignment_criterion(rho).verdict == Verdict.INCONCLUSIVE

    @pytest.mark.parametrize("t", np.linspace(0.05, 0.79, 8).tolist())
    def test_negative_rho_t_is_positive_rho_t_in_another_local_basis(self, t):
        # the two rho_t figures show one family: (I x Z) rho_t(t) (I x Z),
        # Z = diag(1, -1), is rho_t(-t) bit for bit, with the same ||R||_1
        # and a Tr R = 0.875 +- t that differs
        flip = np.kron(np.eye(2), np.diag([1.0, -1.0]))
        assert np.array_equal(rho_t(-t).matrix, flip @ rho_t(t).matrix @ flip)
        minus, plus = realign(rho_t(-t)), realign(rho_t(t))
        assert minus.trace_norm == plus.trace_norm
        assert minus.moment(1) == pytest.approx(0.875 - t, abs=1e-14)
        assert plus.moment(1) == pytest.approx(0.875 + t, abs=1e-14)

    def test_rho_a_grid_valid(self):
        for a in np.linspace(1 / math.sqrt(2), 1.0, 50):
            assert np.trace(rho_a(a).matrix).real == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            rho_a(0.5)

    def test_rho_a_is_npt(self):
        # negative partial transpose across the range
        for a in (1 / math.sqrt(2), 0.85, 1.0):
            m = rho_a(a).matrix.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
            assert hermitian_eigenvalues(m)[0] < -1e-6

    def test_isotropic_limits(self):
        assert np.allclose(isotropic(0.0).matrix, np.eye(9) / 9)
        phi = bell_state(3)
        assert np.allclose(isotropic(1.0).matrix, np.outer(phi, phi.conj()))
        with pytest.raises(ValueError):
            isotropic(-0.2)
        with pytest.raises(ValueError):
            isotropic(1.1)

    @pytest.mark.parametrize("family", [rho_t, rho_a, isotropic, alpha_state],
                             ids=lambda family: family.__name__)
    def test_nan_fails_the_range_check(self, family):
        with pytest.raises(ValueError, match="requires|valid state only") as err:
            family(math.nan)
        assert not isinstance(err.value, StateValidationError)

    @pytest.mark.parametrize("d", [1, 0])
    def test_isotropic_refuses_a_dimension_below_two(self, d):
        with pytest.raises(ValueError, match=f"^d must be an integer >= 2, got {d}$"):
            isotropic(0.5, d)

    def test_isotropic_grid_valid(self):
        for beta in np.linspace(-1 / 8, 1.0, 50):
            assert np.trace(isotropic(beta).matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_alpha_state_entries(self):
        a = 0.5
        rho = alpha_state(a)
        scale = 1 / (8 * a + 1)
        assert rho.matrix[6, 6] == pytest.approx((1 + a) / 2 * scale)
        assert rho.matrix[6, 8] == pytest.approx(math.sqrt(1 - a * a) / 2 * scale)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_alpha_state_grid_valid_and_range(self):
        for a in np.linspace(0.0, 1.0, 50):
            alpha_state(a)
        with pytest.raises(ValueError):
            alpha_state(1.2)

    def test_alpha_state_is_ppt(self):
        # bound entanglement: the partial transpose stays PSD
        for a in (0.1, 0.5, 0.9):
            m = alpha_state(a).matrix.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)
            assert hermitian_eigenvalues(m)[0] >= -1e-10


class TestRandomEnsembles:
    def test_separable_deterministic_under_seed(self):
        a = random_separable(3, 3, terms=4, seed=123)
        b = random_separable(3, 3, terms=4, seed=123)
        assert np.array_equal(a.matrix, b.matrix)

    def test_single_term_is_product_state(self):
        rho = random_separable(2, 3, terms=1, seed=5)
        assert realignment_criterion(rho).value <= 1 + 1e-9

    def test_separable_passes_validation_and_is_inconclusive(self):
        for seed in range(20):
            rho = random_separable(2, 2, terms=6, seed=seed)
            assert realignment_criterion(rho).verdict == Verdict.INCONCLUSIVE

    def test_terms_must_be_positive(self):
        with pytest.raises(ValueError):
            random_separable(2, 2, terms=0, seed=1)


# each public constructor with a dimension argument: (call with that argument
# set to x, its name, its least value)
DIMENSION_ARGUMENTS = {
    "isotropic": (lambda x: isotropic(0.3, x), "d", 2),
    "bell_state": (bell_state, "d", 1),
    "random_density": (lambda x: random_density(x, 1), "dim", 1),
    "random_separable.dim_a": (lambda x: random_separable(x, 2, 2, 1), "dim_a", 1),
    "random_separable.dim_b": (lambda x: random_separable(2, x, 2, 1), "dim_b", 1),
    "random_separable.terms": (lambda x: random_separable(2, 2, x, 1), "terms", 1),
    "random_schmidt_symmetric.d": (lambda x: random_schmidt_symmetric(x, 2, 1), "d", 1),
    "random_schmidt_symmetric.terms": (lambda x: random_schmidt_symmetric(2, x, 1), "terms", 1),
    "swap_operator": (swap_operator, "d", 1),
    "EstimationInput.d": (lambda x: EstimationInput(s=0.1, d=x, k=0.1), "d", 2),
}


@pytest.mark.parametrize("x", [2.5, 3.0, True, 0], ids=repr)
@pytest.mark.parametrize("case", sorted(DIMENSION_ARGUMENTS))
def test_a_dimension_that_is_not_an_integer_or_too_small_is_refused_by_name(case, x):
    build, name, least = DIMENSION_ARGUMENTS[case]
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {least}, got {x}$"):
        build(x)


@st.composite
def edge_entry_states(draw):
    """A state of dims up to 6 x 6, built exactly Hermitian, some of whose
    entries are signed zeros or subnormals."""
    dim_a, dim_b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n = dim_a * dim_b
    weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    diagonal = draw(st.lists(st.tuples(st.integers(0, n - 1), EDGE_DOUBLES), max_size=3))
    weights[[i for i, _ in diagonal if i]] = [x for i, x in diagonal if i]  # keep weights[0]
    m = np.diag(weights / weights.sum()).astype(complex)
    placed = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                     EDGE_DOUBLES, EDGE_DOUBLES), max_size=12))
    for i, j, re, im in placed:
        if i != j:  # a zero's sign in the transposed entry is drawn on its own
            m[i, j], m[j, i] = complex(re, im), complex(re, draw(ZEROS) if im == 0 else -im)
    return validate_density(m, (dim_a, dim_b))


class TestStateFiles:
    def test_round_trip_exact(self, tmp_path):
        rho = random_separable(3, 3, terms=5, seed=77)
        path = tmp_path / "state.json"
        write_state_file(path, rho)
        loaded = read_state_file(path)
        assert (loaded.dim_a, loaded.dim_b) == (3, 3)
        assert np.array_equal(loaded.matrix, rho.matrix)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_is_bit_exact_in_either_layout(self, data):
        rho = data.draw(edge_entry_states())
        pairs = [[z.real, z.imag] for z in rho.matrix.reshape(-1).tolist()]
        with tempfile.TemporaryDirectory() as tmp:
            written, by_hand = Path(tmp, "written.json"), Path(tmp, "pairs.json")
            write_state_file(written, rho)
            by_hand.write_text(json.dumps({"dims": [rho.dim_a, rho.dim_b], "matrix": pairs}))
            payload = json.loads(written.read_text())
            assert payload["matrix"] == hex_entries(rho.matrix.reshape(-1))
            for path in (written, by_hand):
                loaded = read_state_file(path)
                assert (loaded.dim_a, loaded.dim_b) == (rho.dim_a, rho.dim_b)
                assert loaded.matrix.tobytes() == rho.matrix.tobytes()

    def test_a_pair_file_reads_to_the_bits_of_its_hex_twin(self, tmp_path):
        by_pairs, by_hex = read_state_file(PAIR_FILE), read_state_file(HEX_FILE)
        assert (by_pairs.dim_a, by_pairs.dim_b) == (by_hex.dim_a, by_hex.dim_b) == (2, 3)
        assert by_pairs.matrix.tobytes() == by_hex.matrix.tobytes()
        assert by_hex.matrix.tobytes() == random_separable(2, 3, 3, seed=8).matrix.tobytes()
        write_state_file(tmp_path / "rewritten.json", by_pairs)
        assert (tmp_path / "rewritten.json").read_bytes() == HEX_FILE.read_bytes()

    @pytest.mark.parametrize("case", sorted(HEX_REFUSALS))
    def test_refuses_a_bad_hex_matrix_with_its_check(self, tmp_path, case):
        text, check, message = HEX_REFUSALS[case]
        path = tmp_path / "state.json"
        path.write_text(text)
        with pytest.raises(StateValidationError) as err:
            read_state_file(path)
        assert err.value.check == check
        assert str(err.value).startswith(f"{check}: {message}")

    def test_rewrite_is_byte_identical(self, tmp_path):
        rho = rho_t(0.3)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_state_file(p1, rho)
        write_state_file(p2, read_state_file(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_reads_the_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "state.json"
        write_state_file(path, rho_t(0.3))
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        read_state_file(path)
        assert opened == [path]

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(StateValidationError):
            read_state_file(path)

    @pytest.mark.parametrize("text", ["{}", "[]", '"x"', '{"dims": [1, 1]}',
                                      '{"matrix": [[1, 0]]}'])
    def test_one_message_for_a_file_without_both_fields(self, tmp_path, text):
        path = tmp_path / "state.json"
        path.write_text(text)
        with pytest.raises(StateValidationError) as err:
            read_state_file(path)
        assert str(err.value) == "dims: state file needs 'dims' and 'matrix' fields"

    @pytest.mark.parametrize("text, refused", [
        ('{"dims": [1, 1], "matrix": [[1, false]]}', True),
        ('{"dims": [1, 1], "matrix": [[true, 0]], "note": "u"}', True),
        # a true outside the matrix, and letters of true and false elsewhere
        ('{"dims": [1, 1], "matrix": [[1, 0]], "note": true}', False),
        ('{"dims": [1, 1], "matrix": [[1, 0]], "label": "\\u0075"}', False),
    ])
    def test_refuses_a_boolean_matrix_entry_and_nothing_else(self, tmp_path, text, refused):
        path = tmp_path / "state.json"
        path.write_text(text)
        if not refused:
            assert read_state_file(path).matrix.tolist() == [[1.0]]
            return
        with pytest.raises(StateValidationError) as err:
            read_state_file(path)
        assert str(err.value) == "finite: matrix entries must be numbers, not true or false"

    def test_rejects_invalid_state(self, tmp_path):
        path = tmp_path / "bad_state.json"
        path.write_text('{"dims": [2, 2], "matrix": ' +
                        str([[1.0, 0.0]] * 16).replace("(", "[").replace(")", "]") + "}")
        with pytest.raises(StateValidationError):
            read_state_file(path)
