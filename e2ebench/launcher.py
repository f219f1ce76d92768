"""Run ``python -m repro ...`` with the benchmark's tracer installed.

Usage::

    python3 e2ebench/launcher.py TRACE_OUT -- serve-net --port 0 ...

``TRACE_OUT`` is the file the spans are written to when the command
returns (after ``serve-net`` drains on SIGTERM), or ``-`` to run
untraced.  The tracer is the benchmark's own (``tracer.py``); nothing
in ``repro`` changes.
"""

from __future__ import annotations

import os
import runpy
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_out, command = argv[0], argv[2:]
    tr = None
    if trace_out != "-":
        import tracer

        tr = tracer.Tracer().install()
    sys.argv = ["repro", *command]
    code = 0
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        if tr is not None:
            tr.uninstall()
            tr.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
