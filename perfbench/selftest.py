"""Self-checks of the benchmark itself (``run.py --self-test``).

1. Determinism: a single-session workload run twice with one seed issues
   the same operation sequence and the same per-verb RPC counts
   (``MetricsRegistry.snapshot()``); another seed issues a different
   sequence.  ``bulk``, ``dsfs`` and ``dsdb`` are checked (``meta`` has
   two sessions, whose interleaving depends on timing).
2. A corrupted read fails the run: ``run.py --inject-corruption`` flips
   one stored byte behind the server and must exit non-zero, while the
   same run without it exits 0.
3. The metric names ``run.py`` emits match ``BENCHMARK.json`` and
   ``spec.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DETERMINISM = (("bulk", 30), ("dsfs", 300), ("dsdb", 150))


def _check(ok: bool, what: str, problems: list[str]) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        problems.append(what)


def _cli(*args: str):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, last


def main(run_workload) -> int:
    problems: list[str] = []
    print("self-test: determinism", flush=True)
    for name, ops in DETERMINISM:
        a = run_workload(name, 11, 0, False, ops_limit=ops)
        b = run_workload(name, 11, 0, False, ops_limit=ops)
        c = run_workload(name, 12, 0, False, ops_limit=ops)
        _check(not (a["mismatches"] or b["mismatches"] or c["mismatches"]),
               f"{name}: runs are correct", problems)
        _check(a["oplog"] == b["oplog"], f"{name}: same seed, same op sequence", problems)
        _check(a["verbs"] == b["verbs"], f"{name}: same seed, same per-verb RPC counts "
               f"{a['verbs']}", problems)
        _check(a["oplog"] != c["oplog"], f"{name}: other seed, other op sequence", problems)

    print("self-test: corrupted read", flush=True)
    code, last = _cli("--workload", "bulk", "--seed", "3", "--seconds", "1")
    _check(code == 0 and last is not None and last["correct"], "clean run exits 0", problems)
    code, last = _cli("--workload", "bulk", "--seed", "3", "--seconds", "1",
                      "--inject-corruption")
    _check(code != 0 and last is not None and not last["correct"],
           f"corrupted run exits non-zero (exit {code})", problems)

    print("self-test: metric names", flush=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as f:
        spec = json.load(f)
    layer_names = [m["name"] for m in bench["per_layer"]]
    _check(layer_names == list(spec["per_layer"]), "spec.json per_layer matches BENCHMARK.json",
           problems)
    traced = run_workload("bulk", 5, 1, True)
    _check(sorted(traced["layers"]) == sorted(layer_names),
           "traced run emits exactly the per_layer metrics", problems)
    _check({m["name"] for m in bench["end_to_end"]} <= set(traced["e2e"]),
           "untraced run emits every end_to_end metric", problems)
    _check({w["name"] for w in bench["workloads"]} == set(spec["workloads"]),
           "spec.json workloads match BENCHMARK.json", problems)
    print("self-test:", "FAILED: " + "; ".join(problems) if problems else "passed", flush=True)
    return 1 if problems else 0
