"""Command-line front end.

Subcommands: ``analyze`` (full criterion report for one state as JSON),
``sweep`` (CSV grid over a family), ``table1`` (detection-window table for
the bound entangled alpha family) and ``estimate-m1`` (first-moment
intervals). JSON goes through :func:`json.dumps`, the sweep table through
:func:`spar.sweeps.sweep_csv` and the table1 CSV through
:func:`spar.sweeps.csv_text`, which share one cell rule. All write each
float as its shortest round-trip ``repr`` ('.' decimal separator, no
locale), so output parses back to the same doubles and its bytes are
deterministic for fixed inputs.
A range option also takes a negative value as its own argument
(``--param-range -0.7:-0.6:2``); the points of ``--p-range`` are clamped
into the range, so one that ends at 1 ends at 1.0. Every verdict, in a
report, a sweep's ``violated`` column or ``table1``'s edge, uses the one
margin ``DEFAULT.verdict``, and an ``analyze`` record names it as ``tolerance``.

:func:`main` may be called any number of times in one process. The parser
is built on the first call and shared by every later one: each
``parse_args`` returns a fresh namespace, and help and usage text are
written to the ``sys.stdout`` and ``sys.stderr`` of the moment. Callers of
:func:`build_parser` get that same parser and must not mutate it.

:func:`main` alone maps errors to exit codes: 0 success, 1 usage error
(including an unwritable output path, ``--p`` outside [0, 1] and an
``estimate-m1`` option its mode does not read), 2 invalid or undecodable
state file, 3 domain violation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

from .config import DEFAULT
from .criteria import criterion_report, q1_realignment_moments
from .exceptions import DomainError, StateValidationError
from .moment_estimation import EstimationInput, m1_case_bounds, m1_interval_quadratic, simulate_s
from .realign import realign, realignment_criterion
from .spa import certify_completely_positive, eigenvalue_offset, require_weights, spa_threshold
from .states import DensityMatrix, read_state_file, write_state_file
from .sweeps import FAMILIES, csv_text, family_state, sweep_csv, table1_rows

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_STATE = 2
EXIT_DOMAIN = 3

RANGE_OPTIONS = ("--param-range", "--p-range")


@contextlib.contextmanager
def _writing(path):
    """Report a failed write under ``path`` as a usage error, not as a bad state."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(text: str, out_path) -> None:
    """Write ``text`` to ``out_path``, or to stdout when no path is given."""
    if not out_path:
        sys.stdout.write(text)
        return
    with _writing(out_path), open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _emit_json(record: dict, out_path) -> None:
    """Emit one JSON document; verdicts are written as their value."""
    text = json.dumps(record, indent=2, allow_nan=False, default=lambda verdict: verdict.value)
    _emit(text + "\n", out_path)


def _load_state(args) -> tuple[DensityMatrix, dict]:
    if args.state and (args.family or args.param is not None):
        raise ValueError("give either --family/--param or --state, not both")
    if args.state:
        rho = read_state_file(args.state)
        return rho, {"state": args.state}
    if args.family is None or args.param is None:
        raise ValueError(f"{args.command} needs --state or --family with --param")
    rho = family_state(args.family, args.param)
    return rho, {"family": args.family, "param": args.param}


def _parse_range(spec: str, clamp: bool = False) -> list[float]:
    """'lo:hi:n' -> n evenly spaced values from lo to hi inclusive.

    ``lo + step * i`` can round one ulp past hi (``0.08:1:4`` ends at
    1.0000000000000002); with ``clamp`` each value is clamped into the range,
    so a p-grid that ends at 1 ends at 1.0.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be lo:hi:n, got {spec!r}")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"range bounds must be finite, got {spec!r}")
    if n < 1:
        raise ValueError("range needs at least one step")
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    values = [lo + step * i for i in range(n)]
    if clamp:
        bottom, top = min(lo, hi), max(lo, hi)
        values = [min(max(v, bottom), top) for v in values]
    return values


def analysis_record(rho: DensityMatrix, p: float, source: dict) -> dict:
    head = {"input": source, "dims": [rho.dim_a, rho.dim_b], "p": p, "tolerance": DEFAULT.verdict}
    r = realign(rho)
    if not r.is_square:
        # the SPA machinery needs equal subsystem dimensions; report the
        # dimension-agnostic realignment data only
        require_weights([p])
        score = realignment_criterion(r)
        return {
            **head,
            "realignment": {"trace_norm": score.value, "verdict": score.verdict},
            "moments": {"q1": q1_realignment_moments(r), "q2": None},
        }
    report = criterion_report(r, p)
    threshold = spa_threshold(r)
    cert = certify_completely_positive(threshold, p)
    rea, spa_r, error = report.realignment, report.spa_r, report.error
    return {
        **head,
        "realignment": {"trace": report.trace_r, "trace_norm": rea.value, "verdict": rea.verdict},
        "spa_r": {"trace_norm": spa_r.value, "upper_bound": spa_r.bound, "verdict": spa_r.verdict},
        "error": {
            "norm": error.score.value,
            "bound_general": error.bound_general,
            "bound_separable": error.score.bound,
            "verdict": error.score.verdict,
            "bound_valid": error.bound_valid,
        },
        "moments": {"q1": report.q1, "q2": report.q2},
        "spa": {
            "l": threshold.l,
            "k": threshold.k,
            "lower_bound": threshold.lower_bound,
            "trace_r": threshold.trace_r,
            "psd": threshold.psd,
            "coefficients": list(threshold.coefficients),
        },
        "cp_certificate": {
            "certified": cert.certified,
            "gamma1": cert.gamma1,
            "gamma2": cert.gamma2,
        },
    }


def cmd_analyze(args) -> int:
    rho, source = _load_state(args)
    _emit_json(analysis_record(rho, args.p, source), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    params = _parse_range(args.param_range)
    ps = _parse_range(args.p_range, clamp=True)
    states = []

    def built():
        # each state is built once, scored before the next is built, and
        # kept for --dump-states
        for param in params:
            states.append(family_state(args.family, param))
            yield param, states[-1]

    text = sweep_csv(built(), ps)
    if args.dump_states:
        with _writing(args.dump_states):
            os.makedirs(args.dump_states, exist_ok=True)
            for i, rho in enumerate(states):
                path = os.path.join(args.dump_states, f"{args.family}_{i:04d}.json")
                write_state_file(path, rho)
    _emit(text, args.out)
    return EXIT_OK


def cmd_table1(args) -> int:
    _emit(csv_text(table1_rows(), ["alpha", "p_max"]), args.out)
    return EXIT_OK


def cmd_estimate_m1(args) -> int:
    """First-moment intervals from s, d and the offset k.

    With a state source, s is simulated at ``--p``, d is the state's and k is
    :func:`spar.spa.eigenvalue_offset`'s: the first two moments of R behind
    the trace and real-spectrum checks, without the higher moments or the
    sign test of the full threshold. Without one, s, d and k are ``--s``,
    ``--d`` and ``--k``. Each mode refuses a missing option and the options
    of the other before any state is built.
    """
    if args.state or args.family:
        if args.s is not None or args.d is not None or args.k is not None:
            raise ValueError(
                "--s, --d and --k are not read with a state source, which gives s, d and k")
        if args.p is None:
            raise ValueError("--p is required when estimating from a state")
        rho, _ = _load_state(args)
        r = realign(rho)
        s = simulate_s(r, args.p)
        k = eigenvalue_offset(r)[1]
        d = r.dim_a
    else:
        if args.p is not None or args.param is not None:
            raise ValueError("--p and --param are read only with --state or --family")
        if args.s is None or args.d is None or args.k is None:
            raise ValueError("provide --s, --d and --k (or a state source)")
        s, d, k = args.s, args.d, args.k
    inp = EstimationInput(s=s, d=d, k=k)
    case = m1_case_bounds(inp)  # raises DomainError for x = 1 - d^2 s < 0
    quad = m1_interval_quadratic(inp)
    record = {
        "s": s,
        "d": d,
        "k": k,
        "x": inp.x,
        "quadratic": {"lower": quad.lower, "upper": quad.upper, "case": quad.case.value},
        "case_bounds": {"lower": case.lower, "upper": case.upper, "case": case.case.value},
    }
    _emit_json(record, args.out)
    return EXIT_OK


def _finite(text: str) -> float:
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; do not mutate it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to this path instead of stdout")

    parser = argparse.ArgumentParser(prog="spar",
                                     description="Realignment-based entanglement analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", parents=[common], help="full criterion report for one state")
    pa.add_argument("--family", choices=sorted(FAMILIES), default=None)
    pa.add_argument("--param", type=_finite, default=None)
    pa.add_argument("--state", default=None, help="path to a state file")
    pa.add_argument("--p", type=_finite, required=True, help="mixing probability")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("sweep", parents=[common], help="CSV grid over one family")
    ps.add_argument("--family", choices=sorted(FAMILIES), required=True)
    ps.add_argument("--param-range", required=True, help="lo:hi:n")
    ps.add_argument("--p-range", required=True, help="lo:hi:n")
    ps.add_argument("--dump-states", default=None, help="directory for per-grid-point state files")
    ps.set_defaults(func=cmd_sweep)

    pt = sub.add_parser("table1", parents=[common],
                        help="largest violating p per alpha-state parameter")
    pt.set_defaults(func=cmd_table1)

    pe = sub.add_parser("estimate-m1", parents=[common], help="first-moment intervals")
    pe.add_argument("--s", type=_finite, default=None, help="measured expectation value")
    pe.add_argument("--d", type=int, default=None, help="subsystem dimension")
    pe.add_argument("--k", type=_finite, default=None, help="eigenvalue offset")
    pe.add_argument("--family", choices=sorted(FAMILIES), default=None)
    pe.add_argument("--param", type=_finite, default=None)
    pe.add_argument("--state", default=None)
    pe.add_argument("--p", type=_finite, default=None)
    pe.set_defaults(func=cmd_estimate_m1)
    return parser


def _bind_ranges(argv: list[str]) -> list[str]:
    """Join each range option with its value, as in ``--p-range=lo:hi:n``,
    so that a value starting with a minus sign is not read as an option."""
    bound: list[str] = []
    for arg in argv:
        if bound and bound[-1] in RANGE_OPTIONS and not arg.startswith("--"):
            bound[-1] += "=" + arg
        else:
            bound.append(arg)
    return bound


def main(argv=None) -> int:
    """Run one subcommand; every error is mapped to its exit code here."""
    parser = build_parser()
    try:
        args = parser.parse_args(_bind_ranges(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (StateValidationError, OSError) as exc:
        print(f"error: invalid state: {exc}", file=sys.stderr)
        return EXIT_BAD_STATE
    except DomainError as exc:
        print(f"error: domain violation: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
