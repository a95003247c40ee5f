"""Start a daemon with span wrappers installed (traced runs only).

Usage::

    python3 perfbench/launch.py <spans.json> <module> [daemon args...]

``<module>`` is ``repro.chirp.main`` or ``repro.db.server``.  The
wrappers from :func:`tracing.install_server` go in before the daemon's
``main`` runs.  SIGUSR1 snapshots the span aggregates at the start of
the measured window and SIGUSR2 at its end; both snapshots stay in
memory and are written to ``<spans.json>`` once the daemon's own SIGTERM
handling has drained it.
"""

from __future__ import annotations

import importlib
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    out_path, module_name, daemon_args = argv[0], argv[1], argv[2:]
    module = importlib.import_module(module_name)
    tracer = tracing.Tracer()
    tracing.install_server(tracer)
    marks: dict = {}

    def mark(label):
        def handler(signum, frame):
            marks[label] = tracer.snapshot()
        return handler

    signal.signal(signal.SIGUSR1, mark("start"))
    signal.signal(signal.SIGUSR2, mark("end"))
    status = module.main(daemon_args)
    doc = {
        label: [[list(key), val] for key, val in snap.items()]
        for label, snap in marks.items()
    }
    tmp = out_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    os.replace(tmp, out_path)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
