"""The public surface: the names ``spar`` exports and the functions the
benchmark's tracer wraps by name; six guards over the whole tree: every
tolerance is read somewhere, every record is a frozen dataclass and stores
no verdict, only ``spar.linalg`` decomposes a matrix, only ``spar.states``
and ``spar.linalg`` take a conjugate transpose, and every file parses
with the oldest grammar that pyproject.toml supports; the fields of two
records; and one over the test configuration: a failing Hypothesis test does
not stop the run."""

import ast
import dataclasses
import enum
import importlib
import importlib.util
import inspect
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import spar

ROOT = Path(__file__).resolve().parents[1]

# spar.__all__ before the package built it from its modules' lists
EXPORTED = {
    "DEFAULT", "Tolerances", "DomainError", "StateValidationError",
    "CriterionReport", "ErrorReport", "criterion_report", "error_suite",
    "q1_realignment_moments", "q2_rmoment", "spa_r_scores", "spa_r_upper_bound",
    "spa_r_verdict",
    "CaseTag", "EstimationInput", "MomentInterval", "m1_case_bounds",
    "m1_interval_quadratic", "simulate_s", "swap_operator",
    "RealignedMatrix", "Score", "Verdict", "is_schmidt_symmetric", "realign", "realign_matrix",
    "realignment_criterion", "realignment_moment",
    "CharPolyCoeffs", "CpCertificate", "ReferenceThresholds", "SpaAnalysis", "apply_spa",
    "certify_completely_positive", "descartes_psd_test", "eigenvalue_offset",
    "lambda_min_lower_bound", "newton_coefficients", "rho_t_reference_thresholds",
    "spa_threshold", "threshold_value",
    "RHO_T_MAX", "DensityMatrix", "alpha_state", "bell_state", "isotropic", "random_density",
    "random_schmidt_symmetric", "random_separable", "read_state_file", "rho_a", "rho_t",
    "validate_density", "write_state_file",
}


def load_traced():
    """``TRACED`` of ``benchmarks/tracer.py``, loaded without installing it."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "benchmarks" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


TRACED = load_traced()


def test_exported_names_are_unchanged_and_resolve():
    assert len(spar.__all__) == len(set(spar.__all__))
    assert set(spar.__all__) == EXPORTED
    for name in spar.__all__:
        assert getattr(spar, name) is not None, name


@pytest.mark.parametrize("module", ["config", "exceptions", "criteria", "moment_estimation",
                                    "realign", "spa", "states"])
def test_each_export_is_the_object_of_its_module(module):
    # spar.realign is the function, the module stays importable as spar.realign
    source = importlib.import_module(f"spar.{module}")
    assert source.__all__
    for name in source.__all__:
        assert getattr(spar, name) is getattr(source, name), name


@pytest.mark.parametrize("module,qualname", TRACED, ids=[f"{m}.{q}" for m, q in TRACED])
def test_every_traced_function_resolves(module, qualname):
    target = importlib.import_module(f"spar.{module}")
    for part in qualname.split("."):
        target = getattr(target, part)
    assert callable(target)


MODULES = ("config", "criteria", "exceptions", "linalg", "moment_estimation", "realign", "spa",
           "states", "sweeps", "cli")

# the step of a boundary search, in p or in a family parameter: not a verdict margin
SEARCH_STEP = {"sweeps.bisect_boundary", "sweeps.violation_p_max",
               "sweeps._require_tolerance", "sweeps._grid_step"}


def defined_callables(module):
    """Every function of ``module`` and every method of its classes, by qualified name."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # static and class methods
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_no_callable_takes_a_verdict_tolerance():
    # every verdict uses the one margin DEFAULT.verdict; the modules behind
    # spar.__all__, spar.sweeps and spar.cli hold no other
    found = []
    for module_name in MODULES:
        module = importlib.import_module(f"spar.{module_name}")
        for qualname, func in defined_callables(module):
            if {"tol", "verdict_tol"} & set(inspect.signature(func).parameters):
                found.append(f"{module_name}.{qualname}")
    assert sorted(found) == sorted(SEARCH_STEP)


def read_tolerances():
    """The fields of ``Tolerances`` that modules under ``src/spar/`` read as ``DEFAULT.<field>``."""
    read = set()
    for path in (ROOT / "src" / "spar").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "DEFAULT"):
                read.add(node.attr)
    return read


def test_every_tolerance_is_read():
    # a tolerance no code reads guards nothing: it must go, not linger
    fields = {f.name for f in dataclasses.fields(spar.Tolerances)}
    assert fields - read_tolerances() == set()


# the numpy.linalg functions that factor a matrix; norm is not one of them
DECOMPOSITIONS = {"svd", "eig", "eigh", "eigvals", "eigvalsh", "qr", "cholesky", "solve", "inv"}


def numpy_linalg_names(path):
    """(top-level definition, name) for every ``np.linalg.<name>`` or
    ``numpy.linalg.<name>`` that the module at ``path`` reads, and for every
    name it imports from ``numpy.linalg``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "linalg" and isinstance(node.value.value, ast.Name)
                    and node.value.value.id in {"np", "numpy"}):
                yield owner, node.attr
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                yield from ((owner, alias.name) for alias in node.names)


def test_only_linalg_decomposes_a_matrix():
    # benchmarks/tracer.py counts eigensolves and SVDs at the functions of
    # spar.linalg, so a decomposition taken anywhere else, a fast path's
    # included, would hide from it; validate_density's eigvalsh of each state
    # is the one documented exception
    modules = {path.stem: path for path in (ROOT / "src" / "spar").glob("*.py")}
    found = sorted((stem, owner, name) for stem, path in modules.items() if stem != "linalg"
                   for owner, name in numpy_linalg_names(path) if name in DECOMPOSITIONS)
    assert found == [("states", "validate_density", "eigvalsh")]
    # the walk sees the decompositions where they belong
    assert {name for _, name in numpy_linalg_names(modules["linalg"])} == {
        "eigvalsh", "eigvals", "svd"}


def conjugate_transposes(path):
    """(top-level name, line) of each ``.conj().T`` in the module at ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "T"
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "conj"):
                yield owner, node.lineno


def test_only_states_and_linalg_take_a_conjugate_transpose():
    # eig(R) is the one test of a real realigned spectrum, so nothing else
    # measures R - R^H; a state's Hermiticity is checked and made in states
    # (with linalg.hermiticity_defect), and the random constructors build g g^H
    modules = {path.stem: path for path in (ROOT / "src" / "spar").glob("*.py")}
    found = sorted((stem, owner, line) for stem, path in modules.items()
                   if stem not in {"states", "linalg"}
                   for owner, line in conjugate_transposes(path))
    assert found == []
    # the walk sees the conjugate transposes where they belong
    assert [owner for owner, _ in conjugate_transposes(modules["linalg"])] == [
        "hermiticity_defect"]


def mentions(hint, target) -> bool:
    """Whether the type ``hint`` is ``target`` or has it among its arguments, at any depth."""
    return hint is target or any(mentions(arg, target) for arg in typing.get_args(hint))


def record_classes():
    """Every class defined under ``src/spar`` but its enums and exceptions, by qualified name."""
    for module_name in MODULES:
        module = importlib.import_module(f"spar.{module_name}")
        for name, cls in vars(module).items():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and not issubclass(cls, (enum.Enum, Exception))):
                yield f"{module_name}.{name}", cls


def test_every_record_is_a_frozen_dataclass():
    # a tuple record unpacks without error into the wrong names
    records = dict(record_classes())
    assert "realign.Score" in records and "spa.SpaAnalysis" in records
    assert [name for name, cls in records.items()
            if not (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen)] == []


def test_no_record_stores_a_verdict():
    # a verdict is derived from its Score's value and bound, never kept beside them
    found = [f"{name}.{field}" for name, cls in record_classes()
             for field, hint in typing.get_type_hints(cls).items() if mentions(hint, spar.Verdict)]
    assert found == []


def field_names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


def test_tolerances_are_one_per_guard():
    # validation is the one "Hermitian within" slack, for states and hermitian_eigenvalues alike
    assert field_names(spar.Tolerances) == [
        "validation", "verdict", "coefficient", "spectrum_imag", "trace_positive"]


def test_spa_analysis_copies_nothing_of_its_realigned_matrix():
    # d and Tr R are read from the analysis itself: realigned.dim_a and realigned.spa_trace
    assert field_names(spar.SpaAnalysis) == [
        "lower_bound", "k", "l", "psd", "coefficients", "realigned"]


PYTHON_FILES = sorted(p for folder in ("src", "scripts", "tests", "benchmarks")
                      for p in (ROOT / folder).rglob("*.py"))


@pytest.mark.parametrize("path", PYTHON_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_with_the_oldest_supported_grammar(path):
    # pyproject.toml declares requires-python >= 3.10; this catches syntax
    # newer than 3.10 (except*, for one), not library calls newer than 3.10
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # Hypothesis's failure report imports a module that raises a
    # DeprecationWarning; unless pyproject.toml ignores it, filterwarnings =
    # error turns it into an INTERNALERROR that ends the session there
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
