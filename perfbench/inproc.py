"""One in-process ``verify`` run for the layer trace.

Usage, from the root of a checkout with ``src`` on ``PYTHONPATH`` and
``MILNOR_FORGE_THREADS=1``::

    python3 perfbench/inproc.py WORKLOAD SEED TRACE

Calls ``cli.main`` with the workload's arguments and prints one JSON object:
the exit code, the record stream, and the spans and counts.  With ``TRACE``
0 only the root span ``cli.run`` is wrapped, which times the untraced run;
with 1 every span and counter in ``tracer`` is installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import tracer
import workloads


def main() -> None:
    workload, seed, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    if os.environ.get("MILNOR_FORGE_THREADS") != "1":
        raise SystemExit("inproc.py needs MILNOR_FORGE_THREADS=1: spans share one stack")
    from milnor_forge import cli

    t = tracer.Tracer()
    if traced:
        t.install()
    else:
        t.install(spans=(tracer.ROOT,), constructors={})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(workloads.verify_argv(workload, seed))
    t.uninstall()
    print(json.dumps({"exit": code, "stdout": out.getvalue(), **t.report()}))


if __name__ == "__main__":
    main()
