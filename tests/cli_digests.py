#!/usr/bin/env python3
"""Print a digest of what the CLI does on a fixed, seeded list of commands.

Each command runs in process through ``spar.cli.main``. One line is printed
per command: the command, its exit code, and the SHA-256 of its exit code,
stdout, stderr and the name and bytes of each file that its ``--out`` or
``--dump-states`` wrote (each given as the next argument). Two checkouts
whose lines are equal gave the same bytes and exit codes on every command,
so a change that claims identical output is checked by diffing this
script's output at both (pytest does not collect it):

    PYTHONPATH=src python3 tests/cli_digests.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python3 tests/cli_digests.py > before.txt
    diff before.txt after.txt

The list covers ``sweep`` over all four families (random and negative
ranges, p-ranges ending at 1), ``analyze`` (also at the CP certificate's
threshold l and one ulp below it), ``estimate-m1`` (also on d = 4..6 state
files with a Hermitian realignment: isotropic, Schmidt-symmetric and
near-PSD), ``table1``, output to files, help text, and usage, domain and
bad-state errors, among them ``--p`` out of range for a 2 x 3 state and for
a state whose realigned trace is zero, options that the mode of
``estimate-m1`` does not read, ``--tol``, which ``analyze``, ``sweep`` and
``table1`` refuse, state files that do not decode and state files whose dims
the dims rule refuses, and, in each subcommand, abbreviated, ``=``-joined and
repeated options, ``--`` and an option it does not have. Every option of
every subcommand appears in at least one command. State files are written
to a temporary directory that is the working directory while the commands
run, so the messages that name them do not depend on where it is.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shlex
import sys
import tempfile

import numpy as np

from spar import (
    isotropic,
    random_density,
    random_schmidt_symmetric,
    random_separable,
    rho_t,
    validate_density,
    write_state_file,
)
from spar.cli import main

SEED = 20261018

# parameter domains of the sweep families, kept clear of the validity edges
FAMILY_DOMAINS = {
    "rho_t": (-0.79, 0.79),
    "rho_a": (1 / math.sqrt(2) + 1e-9, 1.0),
    "isotropic": (-0.12, 1.0),
    "alpha_state": (0.0, 1.0),
}


def _range(lo: float, hi: float, n: int) -> str:
    return f"{lo!r}:{hi!r}:{n}"


def sweep_commands(rng: random.Random) -> list[list[str]]:
    commands = []
    for family, (lo, hi) in FAMILY_DOMAINS.items():
        for _ in range(10):
            a, b = sorted(rng.uniform(lo, hi) for _ in range(2))
            p_lo = rng.choice([0.0, round(rng.random(), 2)])
            params = _range(a, b, rng.randint(1, 6))
            ps = _range(p_lo, 1.0, rng.randint(1, 120))
            commands.append(["sweep", "--family", family, f"--param-range={params}",
                             f"--p-range={ps}"])
        commands.append(["sweep", "--family", family, f"--param-range={_range(lo, hi, 4)}",
                         "--p-range=0:1:50"])
    commands += [
        ["sweep", "--family", "rho_t", "--param-range", "-0.7:-0.6:3", "--p-range", "0:1:11"],
        ["sweep", "--family", "rho_t", "--param-range=-0.79:0.79:5", "--p-range=0:1:101"],
        ["sweep", "--family", "rho_t", "--param-range=0.2:0.3:2", "--p-range=0.08:1:4"],
        ["sweep", "--family", "isotropic", "--param-range=-0.1:0.9:3", "--p-range=0.07:1:8"],
        ["sweep", "--family", "alpha_state", "--param-range=0.5:0.5:1", "--p-range=1:0:5"],
        ["sweep", "--family", "alpha_state", "--param-range=0.1:0.9:2", "--p-range=0:2:3"],
        ["sweep", "--family", "rho_t", "--param-range=0:2:3", "--p-range=0:1:3"],
        ["sweep", "--family", "nope", "--param-range=0:1:2", "--p-range=0:1:2"],
        ["sweep", "--family", "rho_t", "--param-range=0:1", "--p-range=0:1:2"],
        ["sweep", "--family", "rho_t", "--param-range=0:0.5:0", "--p-range=0:1:2"],
        ["sweep", "--family", "rho_t", "--param-range=0:inf:2", "--p-range=0:1:2"],
        ["sweep", "--family", "rho_t", "--param-range=0:0.5:2"],
    ]
    return commands


def analyze_commands(rng: random.Random) -> list[list[str]]:
    commands = []
    for family, (lo, hi) in FAMILY_DOMAINS.items():
        for _ in range(3):
            commands.append(["analyze", "--family", family, "--param", repr(rng.uniform(lo, hi)),
                             "--p", repr(round(rng.random(), 3))])
    for name in ("separable.json", "separable23.json", "ginibre.json"):
        commands.append(["analyze", "--state", name, "--p", "0.3"])
    commands += [
        ["analyze", "--family", "isotropic", "--param", "0.9", "--p", "0.5"],
        ["analyze", "--state", "rho_t.json", "--p", "0"],
        # the CP certificate's edge: l of rho_t(-0.7), then one ulp below it
        ["analyze", "--family", "rho_t", "--param", "-0.7", "--p", "0.939203943228437"],
        ["analyze", "--family", "rho_t", "--param", "-0.7", "--p", "0.9392039432284369"],
        ["analyze", "--family", "rho_t", "--param", "0.2", "--p", "1.5"],
        ["analyze", "--family", "rho_t", "--param", "0.2"],
        ["analyze", "--family", "rho_t", "--param", "nan", "--p", "0"],
        ["analyze", "--family", "rho_t", "--param", "0.2", "--state", "rho_t.json", "--p", "0"],
        ["analyze", "--p", "0"],
        ["analyze", "--state", "missing.json", "--p", "0"],
        ["analyze", "--state", "not_json.json", "--p", "0"],
        ["analyze", "--state", "not_psd.json", "--p", "0"],
    ]
    return commands


# d >= 4 states whose realigned matrix is Hermitian
LARGE_STATES = ("isotropic4.json", "isotropic5.json", "isotropic6.json", "schmidt4.json",
                "schmidt5.json", "near_psd4.json")


def large_state_commands() -> list[list[str]]:
    # at p = 1, s = 1/d^2 and x = 0, so estimate-m1 prints k
    return [argv for name in LARGE_STATES for argv in (
        ["analyze", "--state", name, "--p", "0.3"], ["estimate-m1", "--state", name, "--p", "1"])]


def estimate_commands(rng: random.Random) -> list[list[str]]:
    commands = []
    for _ in range(4):
        d = rng.randint(2, 4)
        commands.append(["estimate-m1", "--s", repr(rng.uniform(0, 1 / d**2)), "--d", str(d),
                         "--k", repr(rng.uniform(0, 0.2))])
    commands += [
        ["estimate-m1", "--family", "alpha_state", "--param", "0.4", "--p", "0.2"],
        ["estimate-m1", "--family", "isotropic", "--param", "0.5", "--p", "0.1", "--k", "0.05"],
        ["estimate-m1", "--state", "separable.json", "--p", "0.5"],
        ["estimate-m1", "--family", "rho_t", "--param", "0.3"],
        ["estimate-m1", "--s", "0.9", "--d", "2", "--k", "0.1"],
        ["estimate-m1", "--s", "0.1"],
        # an option that the mode or the state source does not read
        ["estimate-m1", "--state", "separable.json", "--param", "0.3", "--p", "0.5"],
        ["estimate-m1", "--family", "rho_a", "--param", "0.8", "--p", "0.9", "--s", "0.2",
         "--d", "7"],
        ["estimate-m1", "--s", "0.1", "--d", "2", "--k", "0", "--p", "0.3"],
    ]
    return commands


def other_commands() -> list[list[str]]:
    return [["table1"], [], ["frobnicate"], ["table1", "--tol", "0"],
            ["analyze", "--family", "rho_t", "--param", "0.3", "--p", "0.2", "--tol", "0"],
            ["sweep", "--family", "rho_t", "--param-range=0.1:0.2:2", "--p-range=0:1:3",
             "--tol", "0"],
            ["sweep", "--help"], ["--help"], ["analyze", "--help"], ["table1", "--help"],
            ["estimate-m1", "-h"]]


# files that do not decode: an entry too large for a double, text that is
# not UTF-8, and arrays nested past the recursion limit
UNDECODABLE = ("overflow.json", "latin1.json", "deep.json")


# state files refused by the dims rule: a float, a bool and a single
# dimension, each beside a valid 2 x 2 matrix, and dims 2 x 2 beside a 3 x 3 one
BAD_DIMS = {"dims_float.json": [2, 2.0], "dims_bool.json": [True, 4], "dims_one.json": [2],
            "dims_size.json": [2, 2]}


def bad_input_commands() -> list[list[str]]:
    commands = [["analyze", "--state", "separable23.json", "--p", p] for p in ("7", "-0.5")]
    commands += [["analyze", "--state", UNDECODABLE[0], "--p", "0.3"],
                 # estimate-m1 measures s against SWAP/d only: no --perm option
                 ["estimate-m1", "--family", "isotropic", "--param", "0.5", "--p", "0.1",
                  "--perm", UNDECODABLE[0]]]
    commands += [["analyze", "--state", name, "--p", "0.3"] for name in UNDECODABLE[1:]]
    # a bad --p for a state whose realigned trace is zero: the weight is checked first
    commands += [[command, "--family", "isotropic", "--param", "-0.125", "--p", "2"]
                 for command in ("analyze", "estimate-m1")]
    commands += [["analyze", "--state", name, "--p", "0.3"] for name in BAD_DIMS]
    return commands


def output_commands() -> list[list[str]]:
    """Each subcommand writing to a file, and one output path that cannot be written."""
    return [
        ["analyze", "--family", "rho_t", "--param", "-0.7", "--p", "0.5", "--out", "analyze.json"],
        ["sweep", "--family", "alpha_state", "--param-range=0.2:0.8:3", "--p-range=0:1:5",
         "--out", "sweep.csv", "--dump-states", "dumped"],
        ["table1", "--out", "table1.csv"],
        ["estimate-m1", "--state", "isotropic4.json", "--p", "1", "--out", "estimate.json"],
        ["analyze", "--family", "rho_t", "--param", "0.2", "--p", "0.5",
         "--out", "missing/analyze.json"],
    ]


def spelling_commands() -> list[list[str]]:
    """Each subcommand with abbreviated, =-joined and repeated options (the
    last one holds), with ``--`` and with an option it does not have."""
    return [
        ["analyze", "--fam", "alpha_state", "--par=0.5", "--p", "0.01"],
        ["analyze", "--family=rho_t", "--pa", "-0.7", "--p=0.5", "--st", "rho_t.json"],
        ["analyze", "--p", "0.9", "--family", "rho_t", "--param", "0.3", "--p", "0.2"],
        ["analyze", "--family", "rho_t", "--param", "0.3", "--p", "0.2", "--"],
        ["analyze", "--", "--family", "rho_t", "--param", "0.3", "--p", "0.2"],
        ["analyze", "--family", "rho_t", "--param", "0.3", "--p", "0.2", "--verbose"],
        ["sweep", "--fam", "isotropic", "--param-r", "0.1:0.9:3", "--p-r=0:1:5"],
        ["sweep", "--fam", "isotropic", "--param-r", "-0.1:0.9:3", "--p-r=0:1:5"],
        ["sweep", "--family=rho_t", "--param-range=0.2:0.3:2", "--p-range=0:1:4",
         "--family", "isotropic"],
        ["sweep", "--family", "rho_t", "--param-range=0:1:2", "--p", "0:1:2"],
        ["sweep", "--family", "rho_t", "--param-range=0.2:0.3:2", "--p-range=0:1:4", "--"],
        ["sweep", "--family", "rho_t", "--param-range=0.2:0.3:2", "--p-range=0:1:4", "--verbose"],
        ["table1", "--"],
        ["table1", "--verbose"],
        ["estimate-m1", "--fam", "rho_a", "--par=0.8", "--p", "0.6"],
        ["estimate-m1", "--s=0.2", "--d=2", "--k=0.01"],
        ["estimate-m1", "--s", "0.1", "--s", "0.2", "--d", "2", "--k", "0.01", "--d", "3"],
        ["estimate-m1", "--s", "0.2", "--d", "2", "--k", "0.01", "--out=m1a.json",
         "--out", "m1b.json"],
        ["estimate-m1", "--s", "0.2", "--d", "2", "--k", "0.01", "--"],
        ["estimate-m1", "--s", "0.2", "--d", "2", "--k", "0.01", "--verbose"],
    ]


def commands() -> list[list[str]]:
    """The fixed list of commands, in the order of the listing."""
    rng = random.Random(SEED)
    return (sweep_commands(rng) + analyze_commands(rng) + estimate_commands(rng)
            + large_state_commands() + other_commands() + bad_input_commands()
            + output_commands() + spelling_commands())


def _write_matrix(name: str, m: np.ndarray, dims: list[int]) -> None:
    """A matrix in the state-file layout, written without density checks."""
    flat = m.reshape(-1)
    pairs = np.column_stack((flat.real, flat.imag)).tolist()
    with open(name, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"dims": dims, "matrix": pairs}) + "\n")


def write_states() -> None:
    """The state files the commands name, in the working directory."""
    write_state_file("separable.json", random_separable(3, 3, 4, seed=7))
    write_state_file("separable23.json", random_separable(2, 3, 3, seed=8))
    write_state_file("rho_t.json", rho_t(-0.7))
    _write_matrix("ginibre.json", random_density(9, seed=3), [3, 3])
    _write_matrix("not_psd.json", np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex), [2, 2])
    with open("not_json.json", "w", encoding="utf-8") as fh:
        fh.write("{not json")
    for d in (4, 5, 6):
        write_state_file(f"isotropic{d}.json", isotropic(0.3, d))
    for d in (4, 5):
        write_state_file(f"schmidt{d}.json", random_schmidt_symmetric(d, d, seed=d))
    write_state_file("near_psd4.json", near_psd_state(4, 1e-6, seed=4))
    with open("overflow.json", "w", encoding="utf-8") as fh:
        fh.write('{"dims": [1, 1], "matrix": [[1' + "0" * 400 + ', 0]]}')
    with open("latin1.json", "wb") as fh:
        fh.write('{"dims": [1, 1], "matrix": [[1, 0]], "note": "\u00e9"}'.encode("latin-1"))
    with open("deep.json", "w", encoding="utf-8") as fh:
        fh.write('{"dims": [1, 1], "matrix": ' + "[" * 100_000 + "]" * 100_000 + "}")
    for name, dims in BAD_DIMS.items():
        n = 3 if name == "dims_size.json" else 4
        _write_matrix(name, np.eye(n, dtype=complex) / n, dims)


def near_psd_state(d: int, eps: float, seed: int):
    """rho ~ rho_SS/2 + I/(2 d^2) - eps H (x) conj(H): R has an eigenvalue of order -eps."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (g + g.conj().T) / np.linalg.norm(g + g.conj().T)
    ss = random_schmidt_symmetric(d, d, seed=seed).matrix
    m = 0.5 * ss + 0.5 * np.eye(d * d) / (d * d) - eps * np.kron(h, h.conj())
    return validate_density(m / np.trace(m).real, (d, d))


def written(argv: list[str]) -> list[bytes]:
    """The name and bytes of each file that ``--out`` or ``--dump-states`` wrote,
    the path given as the next word or joined by ``=``."""
    words = [word for arg in argv
             for word in (arg.split("=", 1) if arg.startswith(("--out=", "--dump-states="))
                          else [arg])]
    paths = []
    for option, path in zip(words, words[1:]):
        if option == "--out" and os.path.isfile(path):
            paths.append(path)
        elif option == "--dump-states" and os.path.isdir(path):
            paths += sorted(os.path.join(path, name) for name in os.listdir(path))
    parts = []
    for path in paths:
        with open(path, "rb") as fh:
            parts += [path.encode("utf-8"), fh.read()]
    return parts


def digest(argv: list[str]) -> str:
    """The exit code, then the SHA-256 of exit code, stdout, stderr and the
    files that the command wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    h = hashlib.sha256()
    for data in [str(code).encode("utf-8"), out.getvalue().encode("utf-8"),
                 err.getvalue().encode("utf-8"), *written(argv)]:
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return f"{code}  {h.hexdigest()}"


def main_digests() -> int:
    home = os.getcwd()
    os.environ["COLUMNS"] = "80"  # usage and help text wrap at the terminal width
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            write_states()
            lines = [f"{shlex.join(argv) or '(no arguments)'}  {digest(argv)}"
                     for argv in commands()]
        finally:
            os.chdir(home)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
