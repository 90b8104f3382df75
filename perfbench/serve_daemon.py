"""Launch ``repro serve``, optionally traced (spawned by ``run.py``).

Usage::

    python perfbench/serve_daemon.py [--trace-out FILE] -- <serve args>

Without ``--trace-out`` this is exactly ``python -m repro serve``.
With it, the program's public functions are wrapped before the daemon
starts (``tracing.py``), the event loop's wait for I/O is recorded as
``serve.idle``, and every span is written to FILE after the daemon
has drained and returned.
"""

from __future__ import annotations

import json
import selectors
import sys


def main() -> int:
    argv = sys.argv[1:]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro.cli import main as repro_main
    if trace_out is None:
        return repro_main(["serve"] + argv)

    import tracing
    tracer = tracing.Tracer().install()
    tracer.wrap(selectors.DefaultSelector, "select", "loop.idle")
    try:
        return repro_main(["serve"] + argv)
    finally:
        tracer.uninstall()
        with open(trace_out, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
