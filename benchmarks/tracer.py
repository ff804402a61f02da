"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces each traced function of ``spar`` with a wrapper
in every ``spar`` namespace that binds it (``spar.spa.realign`` and
``spar.criteria.realign`` are separate bindings of one function), and on the
class for methods. A span is ``(op, name, start, end, self)`` in seconds from
``perf_counter``; self time is the span's duration minus the time its direct
child spans cover. Spans stay in memory until ``write``.

Uses only the standard library, so fresh processes can load it cheaply.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

# (module, qualified name) of every traced function, by layer.
TRACED = (
    ("states", "validate_density"),
    ("states", "read_state_file"),
    ("sweeps", "family_state"),
    ("linalg", "singular_values"),
    ("linalg", "general_eigenvalues"),
    ("linalg", "hermitian_eigenvalues"),
    ("linalg", "power_trace"),
    ("realign", "realign"),
    ("realign", "RealignedMatrix.moments"),
    ("spa", "spa_threshold"),
    ("spa", "newton_coefficients"),
    ("spa", "descartes_psd_test"),
    ("spa", "apply_spa"),
    ("spa", "certify_completely_positive"),
    ("criteria", "criterion_report"),
    ("criteria", "error_suite"),
    ("criteria", "q1_realignment_moments"),
    ("criteria", "q2_rmoment"),
    ("criteria", "spa_r_verdict"),
    ("moment_estimation", "simulate_s"),
    ("moment_estimation", "m1_interval_quadratic"),
    ("moment_estimation", "m1_case_bounds"),
    ("sweeps", "sweep_rows"),
    ("sweeps", "violation_p_max"),
    ("sweeps", "bisect_boundary"),
    ("cli", "main"),
    ("cli", "analysis_record"),
)

SPAN_NAMES = tuple(f"{mod}.{qual}" for mod, qual in TRACED)
MATMULS = "linalg.power_trace.matmuls"


class Tracer:
    def __init__(self):
        self.op = -1
        self.spans: list[tuple[int, str, float, float, float]] = []
        self.counts: dict[tuple[int, str], int] = {}
        self._stack: list[list[float]] = []  # [child time] per open span
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _open(self):
        self._stack.append([0.0])
        return perf_counter()

    def _close(self, name: str, start: float) -> None:
        end = perf_counter()
        child = self._stack.pop()[0]
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        self.spans.append((self.op, name, start, end, duration - child))

    def count(self, name: str, n: int) -> None:
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # the span covers the generator from first resume to exhaustion
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                start = self._open()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(name, start)

            return gen_wrapper

        counts_matmuls = name == "linalg.power_trace"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_matmuls:
                k = args[1] if len(args) > 1 else kwargs.get("k", 1)
                self.count(MATMULS, max(0, int(k) - 1))
            start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start)

        return wrapper

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced function wherever a ``spar`` module binds it."""
        import importlib

        for mod, _ in TRACED:
            importlib.import_module(f"spar.{mod}")
        namespaces = [m for n, m in list(sys.modules.items()) if n == "spar" or n.startswith("spar.")]
        for mod, qual in TRACED:
            module = sys.modules[f"spar.{mod}"]
            name = f"{mod}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(module, qual)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._undo.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # -- output ------------------------------------------------------------
    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": [[op, name, n] for (op, name), n in self.counts.items()],
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)

    def absorb(self, dumped: dict, op: int) -> None:
        """Add spans recorded in another process, relabelled with ``op``."""
        for _, name, start, end, self_s in dumped["spans"]:
            self.spans.append((op, name, start, end, self_s))
        for _, name, n in dumped["counts"]:
            key = (op, name)
            self.counts[key] = self.counts.get(key, 0) + n


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Calls and self milliseconds per op for every traced function."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    for _, name, _, _, s in tracer.spans:
        calls[name] += 1
        self_s[name] += s
    ops = max(ops, 1)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls_per_op"] = calls[name] / ops
        out[f"{name}.self_ms_per_op"] = self_s[name] * 1e3 / ops
    matmuls = sum(n for (_, name), n in tracer.counts.items() if name == MATMULS)
    out["linalg.power_trace.matmuls_per_op"] = matmuls / ops
    return out
