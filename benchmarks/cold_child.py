"""Run one cold command with every layer traced, then write its spans.

    python3 benchmarks/cold_child.py SPANS_OUT import
    python3 benchmarks/cold_child.py SPANS_OUT cli ARGS...       # as the ``spar`` console command
    python3 benchmarks/cold_child.py SPANS_OUT script PATH       # a script run as __main__
"""

import runpy
import sys

from tracer import Tracer


def main() -> None:
    spans, mode, *rest = sys.argv[1:]
    import spar  # noqa: F401  (the import is part of every command)

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        if mode == "cli":
            from spar.cli import entry

            sys.argv = ["spar", *rest]
            entry()
        elif mode == "script":
            sys.argv = rest
            runpy.run_path(rest[0], run_name="__main__")
    finally:
        tracer.write(spans)


if __name__ == "__main__":
    main()
