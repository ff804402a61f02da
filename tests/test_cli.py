import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spar
from spar import (
    cli,
    criterion_report,
    isotropic,
    random_schmidt_symmetric,
    random_separable,
    read_state_file,
    rho_t,
    spa_threshold,
    sweeps,
    write_state_file,
)
from spar.cli import main

import cli_digests
from util import count_spa_checks, near_psd_state, sweep_reference

RESULTS = Path(__file__).resolve().parents[1] / "results"
SRC = Path(spar.__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "cli_digests.py"


def spar_env() -> dict:
    """The environment of a fresh Python process that imports this ``spar``."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_lapack_eigensolves(monkeypatch) -> dict:
    """Record the matrix of every LAPACK eigensolve, however it is reached,
    as Hermitian (eigvalsh, eigh) or general (eigvals, eig)."""
    calls = {"hermitian": [], "general": []}
    for kind, names in (("hermitian", ("eigvalsh", "eigh")), ("general", ("eigvals", "eig"))):
        for name in names:
            def solve(m, *args, _solve=getattr(np.linalg, name), _calls=calls[kind],
                      **kwargs):
                _calls.append(m)
                return _solve(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, solve)
    return calls


class TestAnalyze:
    def test_isotropic_detected(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "isotropic",
                           "--param", "0.9", "--p", "0.5")
        assert code == 0
        record = json.loads(out)
        assert record["spa_r"]["verdict"] == "entangled"
        assert record["dims"] == [3, 3]
        assert record["spa"]["l"] == 0
        assert record["cp_certificate"]["certified"] is True

    def test_separable_point_inconclusive(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "rho_t",
                           "--param", "0.0", "--p", "0")
        assert code == 0
        record = json.loads(out)
        assert record["spa_r"]["verdict"] == "inconclusive"
        assert record["realignment"]["verdict"] == "inconclusive"

    def test_state_file_input_matches_family(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        write_state_file(path, rho_t(0.3))
        code, out_file, _ = run(capsys, "analyze", "--state", str(path), "--p", "0.2")
        assert code == 0
        code, out_family, _ = run(capsys, "analyze", "--family", "rho_t",
                                  "--param", "0.3", "--p", "0.2")
        assert code == 0
        a, b = json.loads(out_file), json.loads(out_family)
        a.pop("input"), b.pop("input")
        assert a == b

    def test_invalid_state_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code, _, err = run(capsys, "analyze", "--state", str(bad), "--p", "0")
        assert code == 2
        assert "invalid state" in err

    def test_missing_source_exits_1(self, capsys):
        code, _, err = run(capsys, "analyze", "--p", "0.5")
        assert code == 1
        assert "analyze needs --state or --family with --param" in err

    def test_non_square_state_reports_realignment_and_q1_only(self, capsys, tmp_path):
        path = tmp_path / "state23.json"
        write_state_file(path, random_separable(2, 3, terms=3, seed=7))
        code, out, _ = run(capsys, "analyze", "--state", str(path), "--p", "0.2")
        assert code == 0
        record = json.loads(out)
        assert record["dims"] == [2, 3]
        assert list(record) == ["input", "dims", "p", "tolerance", "realignment", "moments"]
        assert list(record["realignment"]) == ["trace_norm", "verdict"]
        assert record["realignment"]["verdict"] == "inconclusive"
        assert record["moments"]["q2"] is None
        assert isinstance(record["moments"]["q1"], float)

    @pytest.mark.parametrize("p", ["7", "-0.5", "1.0000000000000002"])
    def test_p_outside_unit_interval_exits_1_for_every_state(self, capsys, tmp_path, p):
        path = tmp_path / "state23.json"
        write_state_file(path, random_separable(2, 3, terms=3, seed=7))
        message = f"error: p must lie in [0, 1], got {float(p)}\n"
        for argv in (["--state", str(path)], ["--family", "rho_t", "--param", "0.3"]):
            assert run(capsys, "analyze", *argv, "--p", p) == (1, "", message)

    def test_usage_error_exits_1(self, capsys):
        assert main(["analyze", "--family", "rho_t", "--param", "0.1"]) == 1  # no --p

    def test_out_flag_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", "--family", "rho_t", "--param", "0.3",
                           "--p", "0.1", "--out", str(out_path))
        assert code == 0
        assert out == ""
        json.loads(out_path.read_text())

    def test_unwritable_out_path_exits_1(self, capsys, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        target = not_a_dir / "report.json"
        code, out, err = run(capsys, "analyze", "--family", "rho_t", "--param", "0.3",
                             "--p", "0.1", "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")

    @pytest.mark.parametrize("rho, skew", [
        (spar.isotropic(0.9), "exact"),
        (spar.random_schmidt_symmetric(3, 3, seed=0), "rounding"),
        (spar.rho_t(0.3), "none"),
    ], ids=["exactly-hermitian", "hermitian-up-to-rounding", "not-hermitian"])
    def test_certified_report_makes_one_general_eigensolve_of_r(self, capsys, tmp_path,
                                                                monkeypatch, rho, skew):
        r = spar.realign(rho)
        defect = np.linalg.norm(r.matrix - r.matrix.conj().T)
        assert {"exact": defect == 0, "rounding": 0 < defect <= spar.DEFAULT.spectrum_imag,
                "none": defect > spar.DEFAULT.spectrum_imag}[skew]
        path = tmp_path / "state.json"
        write_state_file(str(path), rho)
        calls = count_lapack_eigensolves(monkeypatch)
        code, out, _ = run(capsys, "analyze", "--state", str(path), "--p", "0.5")
        assert code == 0
        assert json.loads(out)["cp_certificate"]["certified"] is True
        # the validation's of the state, then one of R, however Hermitian R is:
        # the real-spectrum check's, or else the certificate's
        [h] = calls["hermitian"]
        assert np.array_equal(h, rho.matrix)
        [m] = calls["general"]
        assert np.array_equal(m, r.matrix)

    @pytest.mark.parametrize("family,param", [("isotropic", "0.3"), ("rho_t", "-0.6"),
                                              ("alpha_state", "0.3")])
    def test_decides_the_domain_once_and_checks_p_once_per_public_call(self, capsys,
                                                                       monkeypatch, family,
                                                                       param):
        gates, weights = count_spa_checks(monkeypatch)
        code, _, _ = run(capsys, "analyze", "--family", family, "--param", param, "--p", "0.2")
        assert code == 0
        assert len(gates) == 1
        # criterion_report and certify_completely_positive, one check each of
        # the one-point grid [p]
        assert weights == [[0.2], [0.2]]

    def test_a_bad_p_exits_1_before_the_trace_is_read(self, capsys, monkeypatch):
        gates, weights = count_spa_checks(monkeypatch)
        for command in ("analyze", "estimate-m1"):
            code, out, err = run(capsys, command, "--family", "isotropic", "--param", "-0.125",
                                 "--p", "2")
            assert (code, out, err) == (1, "", "error: p must lie in [0, 1], got 2.0\n")
        assert (gates, weights) == ([], [[2.0], [2.0]])

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_certified_report_makes_one_svd_call(self, capsys, tmp_path, monkeypatch, d):
        path = tmp_path / "state.json"
        write_state_file(str(path), isotropic(0.5, d))
        calls = []
        svd = spar.linalg.singular_values

        def singular_values(m):
            calls.append(np.shape(m))
            return svd(m)

        monkeypatch.setattr(spar.linalg, "singular_values", singular_values)
        code, out, _ = run(capsys, "analyze", "--state", str(path), "--p", "0.5")
        assert code == 0
        assert json.loads(out)["cp_certificate"]["certified"] is True
        # R, the SPA matrix and SPA - R, and for two qutrits the state for q2
        assert calls == [(4 if d == 3 else 3, d * d, d * d)]

    @pytest.mark.parametrize("family, param, p", [
        ("isotropic", "0.9", "0.5"), ("rho_t", "-0.5", "0.9"), ("rho_t", "-0.5", "0.2"),
        ("alpha_state", "0.3", "0.2"), ("rho_a", "0.9", "0.95"), ("rho_a", "0.9", "0.3"),
    ])
    def test_report_eigensolves_r_at_most_once_and_no_spa_matrix(self, capsys, monkeypatch,
                                                                  family, param, p):
        calls = []
        solve = spar.linalg.general_eigenvalues

        def general_eigenvalues(m):
            calls.append(m)
            return solve(m)

        monkeypatch.setattr(spar.linalg, "general_eigenvalues", general_eigenvalues)
        code, out, _ = run(capsys, "analyze", "--family", family, "--param", param, "--p", p)
        assert code == 0
        r = spar.realign(sweeps.family_state(family, float(param)))
        assert len(calls) <= 1
        assert all(np.array_equal(m, r.matrix) for m in calls)
        assert not any(np.array_equal(m, spar.apply_spa(r, float(p))) for m in calls)

    def test_complex_realigned_spectrum_is_refused(self, capsys, tmp_path):
        rho = spar.validate_density(spar.random_density(9, seed=3), (3, 3))
        path = tmp_path / "ginibre.json"
        write_state_file(str(path), rho)
        worst = float(np.max(np.abs(np.linalg.eigvals(spar.realign(rho).matrix).imag)))
        code, out, err = run(capsys, "analyze", "--state", str(path), "--p", "0.3")
        assert (code, out) == (3, "")
        message = f"realigned spectrum has imaginary part {worst:.3e}"
        assert err == f"error: domain violation: {message}\n"

    def test_printed_spa_r_trace_norm_is_the_computed_double(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "rho_t",
                           "--param", "0.3", "--p", "0.25")
        assert code == 0
        norm = json.loads(out)["spa_r"]["trace_norm"]
        assert norm == criterion_report(rho_t(0.3), 0.25).spa_r.value


UNDECODABLE = {
    "overflow": ('{"dims": [1, 1], "matrix": [[1' + "0" * 400 + ', 0]]}').encode(),
    "not_utf8": '{"dims": [1, 1], "matrix": [[1, 0]], "note": "\u00e9"}'.encode("latin-1"),
    "deep": ('{"dims": [1, 1], "matrix": ' + "[" * 100_000 + "]" * 100_000 + "}").encode(),
    # complex(True, False) would read these as 1+0j and 0.5+0j
    "boolean": b'{"dims": [1, 1], "matrix": [[true, false]]}',
    "boolean_imag": b'{"dims": [1, 1], "matrix": [[0.5, false]]}',
}
UNDECODABLE_MESSAGES = {
    "overflow": "matrix entry too large for a double: int too large to convert to float",
    "not_utf8": "not valid JSON: 'utf-8' codec can't decode byte 0xe9",
    "deep": "not valid JSON: maximum recursion depth exceeded",
    "boolean": "matrix entries must be numbers, not true or false",
    "boolean_imag": "matrix entries must be numbers, not true or false",
}


@pytest.mark.parametrize("name", UNDECODABLE)
def test_file_that_does_not_decode_exits_2(capsys, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNDECODABLE[name])
    code, out, err = run(capsys, "analyze", "--state", str(path), "--p", "0.3")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: invalid state: finite: {UNDECODABLE_MESSAGES[name]}")
    assert "Traceback" not in err


def test_state_file_with_a_non_finite_entry_exits_2(capsys, tmp_path):
    path = tmp_path / "state.json"
    path.write_text('{"dims": [1, 1], "matrix": [[1e400, 0]]}')
    code, out, err = run(capsys, "analyze", "--state", str(path), "--p", "0.3")
    message = "finite: matrix contains non-finite entries"
    assert (code, out, err) == (2, "", f"error: invalid state: {message}\n")


class TestSweep:
    def test_unknown_family_exits_1(self, capsys):
        code, out, err = run(capsys, "sweep", "--family", "nope", "--param-range=0:1:2",
                             "--p-range=0:1:2")
        assert (code, out) == (1, "")
        assert "argument --family: invalid choice: 'nope'" in err

    def test_columns_and_determinism(self, capsys):
        args = ("sweep", "--family", "rho_t", "--param-range", "0.1:0.15:3",
                "--p-range", "0:1:3")
        code, out1, _ = run(capsys, *args)
        assert code == 0
        code, out2, _ = run(capsys, *args)
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0] == "param,p,traceNormSpaR,upperBound,violated,l,k,q1,q2"
        assert len(lines) == 1 + 9
        assert "\r" not in out1

    def test_state_without_positive_realigned_trace_keeps_the_other_rows(self, capsys):
        code, out, err = run(capsys, "sweep", "--family", "isotropic",
                             "--param-range=-0.125:1:5", "--p-range=0:1:3")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 15
        assert all(row[2:7] == ["nan", "nan", "0", "nan", "nan"] for row in rows[:3])
        assert not any("nan" in row for row in rows[3:])

    def test_decides_each_states_domain_once(self, capsys, monkeypatch):
        gates, _ = count_spa_checks(monkeypatch)
        # the gate refuses isotropic(-0.125), whose realigned trace is zero
        for family, params in (("rho_t", "0.1:0.3:3"), ("isotropic", "-0.125:0.5:2")):
            code, _, _ = run(capsys, "sweep", "--family", family, f"--param-range={params}",
                             "--p-range=0:1:5")
            assert code == 0
        assert len(gates) == len({id(r) for r in gates}) == 5

    def test_param_major_ordering(self, capsys):
        _, out, _ = run(capsys, "sweep", "--family", "isotropic",
                        "--param-range", "0.1:0.2:2", "--p-range", "0:1:2")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        params = [float(r[0]) for r in rows]
        assert params == sorted(params)
        assert [float(r[1]) for r in rows] == [0.0, 1.0, 0.0, 1.0]

    def test_q2_only_for_qutrits(self, capsys):
        _, out, _ = run(capsys, "sweep", "--family", "rho_t",
                        "--param-range", "0.1:0.1:1", "--p-range", "0:0:1")
        assert out.strip().split("\n")[1].endswith(",")  # empty q2 cell
        _, out, _ = run(capsys, "sweep", "--family", "alpha_state",
                        "--param-range", "0.5:0.5:1", "--p-range", "0:0:1")
        assert not out.strip().split("\n")[1].endswith(",")

    @pytest.mark.parametrize("ranges", [
        ("--param-range", "-0.7:-0.6:2", "--p-range", "0:1:2"),
        ("--param-range", "0.1:0.2:2", "--p-range", "-0.0:1:3"),
    ], ids=["param-range", "p-range"])
    def test_negative_range_as_separate_argument(self, capsys, ranges):
        joined = [f"{opt}={value}" for opt, value in zip(ranges[::2], ranges[1::2])]
        code, out_joined, _ = run(capsys, "sweep", "--family", "rho_t", *joined)
        assert code == 0
        assert run(capsys, "sweep", "--family", "rho_t", *ranges) == (0, out_joined, "")

    def test_p_range_ending_at_1_does_not_overshoot(self, capsys):
        # 0.08 + 3 * ((1 - 0.08) / 3) rounds to 1.0000000000000002
        code, out, err = run(capsys, "sweep", "--family", "rho_t",
                             "--param-range=0.2:0.3:2", "--p-range=0.08:1:4")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [row[1] for row in rows[:4]] == ["0.08", "0.3866666666666667",
                                                "0.6933333333333334", "1.0"]
        assert rows[-1][1] == "1.0"

    def test_param_range_is_not_clamped(self):
        assert cli._parse_range("0.08:1:4")[-1] == 0.08 + 3 * ((1 - 0.08) / 3) > 1.0

    def test_p_outside_unit_interval_exits_1_before_any_row(self, capsys):
        code, out, err = run(capsys, "sweep", "--family", "rho_t",
                             "--param-range", "0.1:0.2:2", "--p-range=0:2:3")
        assert (code, out) == (1, "")
        assert err == "error: p must lie in [0, 1], got 2.0\n"

    @pytest.mark.parametrize("spec", ["nan:0.1:2", "0:inf:2"])
    def test_non_finite_range_exits_1(self, capsys, spec):
        code, out, err = run(capsys, "sweep", "--family", "rho_t", "--param-range", spec,
                             "--p-range", "0:1:2")
        assert (code, out) == (1, "")
        assert err == f"error: range bounds must be finite, got {spec!r}\n"

    def test_unwritable_dump_states_exits_1(self, capsys, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        target = not_a_dir / "states"
        code, out, err = run(capsys, "sweep", "--family", "rho_t", "--param-range", "0.1:0.2:2",
                             "--p-range", "0:1:2", "--dump-states", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")

    @pytest.mark.parametrize("ranges, message", [
        (("--param-range", "0.1:0.2", "--p-range", "0:1:2"),
         "range must be lo:hi:n, got '0.1:0.2'"),
        (("--param-range", "0.1:0.2:2", "--p-range", "0:1:0"), "range needs at least one step"),
    ], ids=["two-fields", "no-step"])
    def test_malformed_range_exits_1(self, capsys, ranges, message):
        code, out, err = run(capsys, "sweep", "--family", "rho_t", *ranges)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_dump_states_builds_each_state_once(self, capsys, tmp_path, monkeypatch):
        params = [0.1 + 0.2 * i for i in range(5)]
        ps = [0.0, 0.5, 1.0]
        expected_csv = sweep_reference("alpha_state", params, ps)
        expected_files = {}
        for i, param in enumerate(params):
            path = tmp_path / f"expected_{i}.json"
            write_state_file(str(path), sweeps.family_state("alpha_state", param))
            expected_files[f"alpha_state_{i:04d}.json"] = path.read_bytes()
        built, events = [], []
        build, score = sweeps.family_state, sweeps._spa_r_scores

        def family_state(name, param):
            built.append(param)
            events.append("build")
            return build(name, param)

        def spa_r_scores(*args):
            events.append("score")
            return score(*args)

        monkeypatch.setattr(cli, "family_state", family_state)
        monkeypatch.setattr(sweeps, "family_state", family_state)
        monkeypatch.setattr(sweeps, "_spa_r_scores", spa_r_scores)
        dump = tmp_path / "states"
        code, out, _ = run(capsys, "sweep", "--family", "alpha_state",
                           "--param-range=0.1:0.9:5", "--p-range=0:1:3",
                           "--dump-states", str(dump))
        assert code == 0
        assert len(built) == 5 and built == params
        # each state is scored before the next is built, as a loop over
        # the params would do, so errors surface in the same order
        assert events == ["build", "score"] * 5
        assert out == expected_csv
        assert {path.name: path.read_bytes() for path in dump.iterdir()} == expected_files

    def test_dump_states_round_trip(self, capsys, tmp_path):
        dump = tmp_path / "states"
        code, out, _ = run(capsys, "sweep", "--family", "alpha_state",
                           "--param-range", "0.5:0.5:1", "--p-range", "0.01:0.01:1",
                           "--dump-states", str(dump))
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        code, analyzed, _ = run(capsys, "analyze", "--state",
                                str(dump / "alpha_state_0000.json"), "--p", "0.01")
        assert code == 0
        record = json.loads(analyzed)
        # the sweep scalars reproduce exactly from the dumped state file
        assert record["spa_r"]["trace_norm"] == float(row[2])
        assert record["spa_r"]["upper_bound"] == float(row[3])
        assert record["moments"]["q1"] == float(row[7])
        assert record["moments"]["q2"] == float(row[8])


class TestTable1:
    def test_shape_and_reference_row(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,p_max"
        assert len(lines) == 10
        by_alpha = {round(float(a), 1): float(p) for a, p in
                    (line.split(",") for line in lines[1:])}
        assert by_alpha[0.5] == pytest.approx(0.018284, abs=1e-3)

    def test_stdout_equals_committed_table(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0
        assert out.encode() == (RESULTS / "table1.csv").read_bytes()


STATE_MODE = "--s, --d and --k are not read with a state source, which gives s, d and k"
VALUE_MODE = "--p and --param are read only with --state or --family"


class TestEstimateM1:
    def test_zero_offset(self, capsys):
        code, out, _ = run(capsys, "estimate-m1", "--s", "0.2", "--d", "2", "--k", "0")
        assert code == 0
        record = json.loads(out)
        assert record["quadratic"]["lower"] == 0
        assert record["quadratic"]["upper"] == pytest.approx(0.2)

    def test_reference_interval(self, capsys):
        code, out, _ = run(capsys, "estimate-m1", "--s", "0.2", "--d", "2", "--k", "0.01")
        record = json.loads(out)
        assert record["quadratic"]["lower"] == pytest.approx(0.01367, abs=5e-6)
        assert record["quadratic"]["upper"] == pytest.approx(0.14633, abs=5e-6)
        assert record["case_bounds"]["case"] == "case2"

    def test_negative_x_exits_3(self, capsys):
        code, _, err = run(capsys, "estimate-m1", "--s", "0.3", "--d", "2", "--k", "0")
        assert code == 3
        assert "domain" in err

    def test_negative_x_message(self, capsys):
        code, out, err = run(capsys, "estimate-m1", "--s", "0.2", "--d", "3", "--k", "0.1")
        assert (code, out) == (3, "")
        assert err == "error: domain violation: x = 1 - d^2 s = -8.000e-01 is negative\n"

    def test_from_state_with_default_swap_hits_x_gate(self, capsys):
        # the SWAP expectation of these states exceeds 1/d^2, so the
        # estimator's assumption x >= 0 fails and the command reports it
        code, _, err = run(capsys, "estimate-m1", "--family", "isotropic",
                           "--param", "0.6", "--p", "0.1")
        assert code == 3
        assert "domain" in err

    @pytest.mark.parametrize("rho", (
        [isotropic(b, d) for d in range(2, 7) for b in (0.1, 0.8)]
        + [random_schmidt_symmetric(d, d, seed=d) for d in range(2, 6)]
        + [near_psd_state(d, eps, seed=14) for d in (3, 4) for eps in (1e-4, 1e-6, 1e-8)]
    ), ids=repr)
    def test_k_is_the_thresholds_k(self, capsys, tmp_path, monkeypatch, rho):
        path = tmp_path / "state.json"
        write_state_file(str(path), rho)
        eigensolves, newton = [], []
        monkeypatch.setattr(spar.linalg, "general_eigenvalues", eigensolves.append)
        monkeypatch.setattr(spar.spa, "newton_coefficients", newton.append)
        # at p = 1, s = 1/d^2 and x = 0 up to rounding, so every state gets its intervals
        code, out, _ = run(capsys, "estimate-m1", "--state", str(path), "--p", "1")
        assert code == 0
        assert eigensolves == []  # R is Hermitian
        assert newton == []  # k needs m_1 and m_2 only
        monkeypatch.undo()
        assert json.loads(out)["k"] == spa_threshold(read_state_file(path)).k

    def test_missing_arguments_exit_1(self, capsys):
        code, _, _ = run(capsys, "estimate-m1", "--s", "0.2")
        assert code == 1

    def test_family_without_param_exits_1(self, capsys):
        code, _, err = run(capsys, "estimate-m1", "--family", "rho_t", "--p", "0.3")
        assert code == 1
        assert "estimate-m1 needs --state or --family with --param" in err

    @pytest.mark.parametrize("argv, message", [
        (["--family", "rho_a", "--param", "0.8", "--p", "0.9", "--s", "0.2", "--d", "7"],
         STATE_MODE),
        (["--state", "state.json", "--p", "0.9", "--d", "3"], STATE_MODE),
        (["--family", "rho_a", "--param", "0.8", "--p", "0.9", "--s", "0.2", "--k", "0"],
         STATE_MODE),
        (["--family", "isotropic", "--param", "0.5", "--p", "0.1", "--k", "0.05"], STATE_MODE),
        (["--s", "0.1", "--d", "2", "--k", "0", "--p", "0.3"], VALUE_MODE),
        (["--s", "0.1", "--d", "2", "--k", "0", "--param", "0.3"], VALUE_MODE),
    ], ids=["state-s-d", "state-d", "state-s-k", "state-k", "values-p", "values-param"])
    def test_an_option_the_mode_does_not_read_exits_1_before_a_state_is_built(
            self, capsys, monkeypatch, argv, message):
        built = []
        monkeypatch.setattr(cli, "family_state", built.append)
        monkeypatch.setattr(cli, "read_state_file", built.append)
        code, out, err = run(capsys, "estimate-m1", *argv)
        assert (code, out, err, built) == (1, "", f"error: {message}\n", [])

    def test_a_state_without_p_exits_1_before_it_is_read(self, capsys):
        code, out, err = run(capsys, "estimate-m1", "--state", "missing.json")
        assert (code, out, err) == (1, "", "error: --p is required when estimating from a state\n")

    def test_perm_is_an_unrecognized_argument(self, capsys):
        code, out, err = run(capsys, "estimate-m1", "--family", "isotropic", "--param", "0.5",
                             "--p", "0.1", "--perm", "x.json")
        assert (code, out) == (1, "")
        assert err.endswith("error: unrecognized arguments: --perm x.json\n")


@pytest.mark.parametrize("option, argv, message", [
    ("--p", ["analyze", "--family", "rho_t", "--param", "0.0", "--p", "nan"],
     "must be finite, got 'nan'"),
    ("--param", ["analyze", "--family", "isotropic", "--param", "inf", "--p", "0"],
     "must be finite, got 'inf'"),
    ("--k", ["estimate-m1", "--s", "0.2", "--d", "2", "--k", "inf"],
     "must be finite, got 'inf'"),
    ("--s", ["estimate-m1", "--s", "nan", "--d", "2", "--k", "0"],
     "must be finite, got 'nan'"),
    ("--param", ["estimate-m1", "--family", "isotropic", "--param", "nan", "--p", "0"],
     "must be finite, got 'nan'"),
    ("--p", ["estimate-m1", "--family", "rho_t", "--param", "0.0", "--p", "inf"],
     "must be finite, got 'inf'"),
    ("--p", ["analyze", "--family", "rho_t", "--param", "0.0", "--p", "abc"],
     "invalid float value: 'abc'"),
], ids=["p-nan", "param-inf", "k-inf", "s-nan", "m1-param-nan", "m1-p-inf", "p-abc"])
def test_unsound_or_non_finite_number_exits_1(capsys, option, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.endswith(f": error: argument {option}: {message}\n")


@pytest.mark.parametrize("command", ["analyze", "estimate-m1"])
def test_a_state_file_with_param_exits_1(capsys, tmp_path, command):
    path = tmp_path / "state.json"
    write_state_file(path, rho_t(0.3))
    code, out, err = run(capsys, command, "--state", str(path), "--param", "0.3", "--p", "0.5")
    assert (code, out, err) == (1, "", "error: give either --family/--param or --state, not both\n")


def test_unknown_command_exits_1():
    assert main(["frobnicate"]) == 1


def test_help_exits_0():
    assert main(["--help"]) == 0


@pytest.mark.parametrize("argv", [
    ["analyze", "--family", "rho_t", "--param", "0.3", "--p", "0.2", "--tol", "0"],
    ["sweep", "--family", "isotropic", "--param-range", "0.9:0.9:1", "--p-range", "0:1:3",
     "--tol", "0.5"],
    ["table1", "--tol", "5"],
    ["estimate-m1", "--s", "0.2", "--d", "2", "--k", "0.01", "--tol", "7"],
], ids=["analyze", "sweep", "table1", "estimate-m1"])
def test_tol_exits_1_in_every_subcommand(capsys, argv):
    # every verdict uses the one margin DEFAULT.verdict; no subcommand sets another
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"unrecognized arguments: --tol {argv[-1]}" in err


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    for argv in (["analyze", "--family", "rho_t", "--param", "0.3", "--p", "0.2"],
                 ["sweep", "--family", "rho_t", "--param-range=0.1:0.2:2", "--p-range=0:1:2"],
                 ["estimate-m1", "--s", "0.2", "--d", "2", "--k", "0.01"]):
        assert run(capsys, *argv)[0] == 0
    # spar itself, the parent holding --out and the four subcommands
    assert len(built) == 6


def test_shared_parser_keeps_no_state_between_requests(capsys):
    analyze = ("analyze", "--family", "rho_t", "--param", "0.3", "--p", "0.2")
    sweep = ("sweep", "--family", "rho_t", "--param-range", "-0.7:-0.6:2", "--p-range", "0:1:3")
    estimate = ("estimate-m1", "--s", "0.2", "--d", "2", "--k", "0.01")
    other_p = ("analyze", "--family", "rho_t", "--param", "0.3", "--p", "0.9")
    sequence = [
        (other_p, 0),
        (analyze, 0),
        (("sweep", "--family", "rho_t", "--param-range", "0.1:0.2:2"), 1),  # no --p-range
        (sweep, 0),
        (("--help",), 0),
        (estimate, 0),
    ]
    first = {}
    for _ in range(2):
        for argv, expected_code in sequence:
            code, out, err = run(capsys, *argv)
            assert code == expected_code
            if code == 0:
                assert first.setdefault(argv, (out, err)) == (out, err)
    assert json.loads(first[analyze][0])["tolerance"] == 1e-09
    assert json.loads(first[analyze][0])["p"] == 0.2  # not the 0.9 of the request before
    fresh = subprocess.run([sys.executable, "-c", "from spar.cli import entry; entry()", *analyze],
                           capture_output=True, env=spar_env(), timeout=60, check=True)
    assert fresh.stdout == first[analyze][0].encode()


def test_cli_bytes_match_the_committed_digest_listing():
    # its own process: the tool changes the working directory while it runs.
    # The listing holds the bytes of one numpy and LAPACK build; another build
    # may round a float differently and must regenerate it to compare
    done = subprocess.run([sys.executable, str(DIGESTS)], capture_output=True, text=True,
                          env=spar_env(), timeout=120, check=True)
    got = done.stdout.splitlines()
    want = DIGESTS.with_suffix(".txt").read_text(encoding="utf-8").splitlines()
    for line, expected in zip(got, want):
        command = line.rsplit("  ", 2)[0]
        assert line == expected, f"first command whose digest differs: {command}"
    assert len(got) == len(want)


def test_every_option_is_in_the_digest_listing():
    # each option of each subcommand, by any of its strings, in a command of
    # that subcommand, and each option string somewhere in the listing
    parser = cli.build_parser()
    [subcommands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    parsers = {None: parser, **subcommands.choices}
    listed = cli_digests.commands()

    def used(argvs):
        return {arg.split("=")[0] for argv in argvs for arg in argv}

    def subcommand(argv):
        return argv[0] if argv and argv[0] in subcommands.choices else None

    missing = []
    for name, sub in parsers.items():
        mine = used(argv for argv in listed if subcommand(argv) == name)
        options = [a.option_strings for a in sub._actions if a.option_strings]
        missing += [f"{name} {strings[-1]}" for strings in options if not mine & set(strings)]
        missing += [f"{name} {s}" for strings in options for s in strings if s not in used(listed)]
    assert missing == []
