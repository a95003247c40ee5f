#!/usr/bin/env python3
"""The TSS benchmark: seeded closed-loop workloads against real daemons.

::

    python3 perfbench/run.py --workload meta --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Each run boots ``repro.chirp.main`` / ``repro.db.server`` daemons on
loopback (ephemeral ports, default flags plus ``--auth unix``), drives
one workload through the public client stack (``Adapter`` -> ``core`` ->
``ChirpClient`` -> ``transport``), checks every read against a shadow
model, and prints a report followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` gives the end-to-end metrics.  ``--trace 1`` first repeats
the untraced measurement, then boots the daemons through ``launch.py``
with span wrappers in both processes and gives the per-layer metrics
(see ``spec.json`` for which end-to-end metric each should move, on
which workload).  Sizes, mixes and the load model are in ``spec.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

BOOTS = 5          # daemon set-ups per untraced run; setup_s is their median
WARMUP_S = 2.0     # lazy dials, first ACL reads and cache fills happen here
SLICES = 5         # ops_per_s is the median over this many equal slices
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3   # glibc mallopt parameters


def pin_malloc_thresholds() -> bool:
    """Fix glibc's malloc thresholds in the generator process.

    By default glibc raises its mmap threshold the first time a large
    mapped block is freed, and trims the heap top once enough of it is
    free.  Whether a whole-file read's growing buffer is then served from
    reused heap or from freshly faulted pages depends on the order of the
    process's earlier allocations, so on a 2-vCPU VM a whole run's bulk
    read p50 landed at either about 8 or about 12 ms.  Fixed thresholds
    keep buffers of up to 32 MB on a heap that is not trimmed, so after
    the warm-up they are reused in every run.  ``mallopt`` is per process:
    the daemons keep glibc's defaults.  Returns False where there is no
    glibc ``mallopt``.
    """
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6")
        return bool(libc.mallopt(M_MMAP_THRESHOLD, 32 << 20)
                    and libc.mallopt(M_TRIM_THRESHOLD, 256 << 20))
    except (OSError, AttributeError):
        return False


def _p(values, q):
    """The q-quantile (0..1) of ``values`` by linear interpolation."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Phase:
    """A workload's daemons, booted ``boots`` times; the last boot stays up."""

    def __init__(self, wl_cls, workdir, trace, boots):
        from procs import Daemon

        self.trace = trace
        self.daemons: list = []
        self.setup_times: list[float] = []
        tag = "traced" if trace else "plain"
        for b in range(boots):
            t0 = time.perf_counter()
            self.daemons = []
            try:
                for i, kind in enumerate(wl_cls.DAEMONS):
                    self.daemons.append(
                        Daemon(kind, workdir, f"{tag}{b}-{i}-{kind}", trace and b == boots - 1))
                for d in self.daemons:
                    d.wait_banner()
                    _probe(d)
            except BaseException:
                self.stop()
                raise
            self.setup_times.append(time.perf_counter() - t0)
            if b < boots - 1:
                self.stop()
        self.addrs = [d.address for d in self.daemons]

    def stop(self):
        for d in self.daemons:
            d.stop()


def _probe(daemon) -> None:
    """Block until the daemon answers one real request."""
    from workloads import CREDS

    if daemon.kind == "chirp":
        from repro.chirp.client import ChirpClient

        client = ChirpClient(*daemon.address, credentials=CREDS, max_conns=1)
        try:
            client.whoami()
        finally:
            client.close()
    else:
        from repro.db.client import DatabaseClient
        from repro.db.query import Query

        client = DatabaseClient(*daemon.address, credentials=CREDS)
        try:
            client.count(Query())
        finally:
            client.close()


class CountingClock:
    """Monotonic clock for the retry policy that counts backoff sleeps."""

    def __init__(self):
        self.sleeps = 0

    def now(self):
        return time.monotonic()

    def sleep(self, seconds):
        self.sleeps += 1
        if seconds > 0:
            time.sleep(seconds)


def drive(wl, phase, seconds, tracer=None, ops_limit=None):
    """Run the sessions' closed loops; return samples, marks and errors."""
    from procs import cpu_steal, open_sockets
    from workloads import Mismatch

    marks: dict = {}
    mismatches: list[str] = []
    failures: list[str] = []
    samples = [[] for _ in range(wl.SESSIONS)]
    begin = time.perf_counter()
    warm_end = begin if ops_limit else begin + WARMUP_S
    window_end = float("inf") if ops_limit else warm_end + seconds

    def mark(label):
        if phase.trace:
            for d in phase.daemons:
                d.signal(signal.SIGUSR1 if label == "start" else signal.SIGUSR2)
        t = os.times()
        marks[label] = {
            "t": time.perf_counter(),
            "client_cpu": t.user + t.system,
            "daemon_cpu": [d.cpu_seconds() for d in phase.daemons],
            "verbs": wl.metrics.snapshot()["verbs"],
            "cache": wl.cache_snapshot(),
            "spans": tracer.snapshot() if tracer else None,
            "retries": wl.retry.clock.sleeps,
            "rss": [d.peak_rss_mb() for d in phase.daemons],
            "steal": cpu_steal(),
            "sockets": open_sockets(),
        }

    def loop(sid):
        record = samples[sid].append
        n = 0
        while True:
            now = time.perf_counter()
            if sid == 0 and "start" not in marks and now >= warm_end:
                mark("start")
            if now >= window_end or (ops_limit is not None and n >= ops_limit):
                return
            op = wl.next_op(sid)
            if tracer:
                tracer.set_op(op.kind)
            t0 = time.perf_counter()
            try:
                result, ok = op.run(), True
            except Exception as exc:  # noqa: BLE001 - any failure is counted
                result, ok = exc, False
            t1 = time.perf_counter()
            if tracer:
                tracer.set_op(None)
            rb = wb = 0
            if ok:
                try:
                    rb, wb = op.finish(result)
                except Mismatch as exc:
                    mismatches.append(str(exc))
            else:
                op.fail()
                failures.append(f"{op.kind} {op.target}: {result!r}")
            record((t0, op.kind, t1 - t0, rb, wb, ok))
            n += 1

    errors: list[BaseException] = []

    def guarded(sid):
        try:
            loop(sid)
        except BaseException as exc:  # noqa: BLE001 - re-raised on the main thread
            errors.append(exc)

    others = [threading.Thread(target=guarded, args=(sid,), name=f"session{sid}")
              for sid in range(1, wl.SESSIONS)]
    for t in others:
        t.start()
    threads_seen = threading.active_count()
    try:
        loop(0)
        threads_seen = max(threads_seen, threading.active_count())
    finally:
        for t in others:
            t.join()
    if errors:
        raise errors[0]
    mark("end")
    return samples, marks, mismatches, failures, (threads_seen, marks["end"]["sockets"])


def e2e_metrics(wl, samples, marks):
    """End-to-end metrics from the samples inside the measured window."""
    start, end = marks["start"]["t"], marks["end"]["t"]
    win = [s for ss in samples for s in ss if start <= s[0] < end]
    span = end - start
    edges = [start + span * i / SLICES for i in range(SLICES + 1)]
    rates = [sum(1 for s in win if edges[i] <= s[0] < edges[i + 1]) / (span / SLICES)
             for i in range(SLICES)]
    lat = [s[2] for s in win]
    by_kind: dict[str, list[float]] = {}
    for s in win:
        by_kind.setdefault(s[1], []).append(s[2])
    rbytes = sum(s[3] for s in win)
    wbytes = sum(s[4] for s in win)
    rtime = sum(s[2] for s in win if s[3])
    wtime = sum(s[2] for s in win if s[4])
    out = {
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": _p(lat, 0.5) * 1e3,
        "op_p99_ms": _p(lat, 0.99) * 1e3,
        "read_p50_ms": _p(by_kind.get(wl.READ_KIND, []), 0.5) * 1e3,
        "write_p50_ms": _p(by_kind.get(wl.WRITE_KIND, []), 0.5) * 1e3,
        "read_MB_per_s": rbytes / 1e6 / rtime if rtime else 0.0,
        "write_MB_per_s": wbytes / 1e6 / wtime if wtime else 0.0,
    }
    named = {
        name: _p([x for k in kinds for x in by_kind.get(k, [])], 0.5) * 1e3
        for name, kinds in wl.NAMED_P50.items()
    }
    (s0, t0), (s1, t1) = marks["start"]["steal"], marks["end"]["steal"]
    named["cpu_steal_pct"] = 100.0 * (s1 - s0) / (t1 - t0) if t1 > t0 else 0.0
    counts = {k: len(v) for k, v in sorted(by_kind.items())}
    attempted = len(win)
    failed = sum(1 for s in win if not s[5])
    return out, named, counts, attempted, failed, wbytes


def _spans_delta(a, b):
    """``b - a`` over span aggregates keyed by (op, parent, name)."""
    out = {}
    for key, val in b.items():
        base = a.get(key, (0, 0, 0, 0))
        d = [val[i] - base[i] for i in range(4)]
        if d[0]:
            out[key] = d
    return out


def _load_daemon_spans(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    snaps = {label: {tuple(k): v for k, v in entries} for label, entries in doc.items()}
    return _spans_delta(snaps.get("start", {}), snaps["end"])


def layer_metrics(wl, phase, marks, counts, user_written, untraced_rate, traced_rate):
    """Per-layer metrics of a traced drive (see spec.json for their targets)."""
    from tracing import EXCHANGE_SPANS, STREAM_SPANS

    ops = max(sum(counts.values()), 1)
    creates = counts.get(wl.WRITE_KIND, 0)
    cs, ce = marks["start"], marks["end"]
    client = _spans_delta(cs["spans"], ce["spans"])
    whole = ce["spans"]
    chirp_spans, db_spans, server_spans = {}, {}, {}
    for d in phase.daemons:
        for key, val in _load_daemon_spans(d.trace_path).items():
            for target in (chirp_spans if d.kind == "chirp" else db_spans, server_spans):
                acc = target.setdefault(key, [0, 0, 0, 0])
                for i in range(4):
                    acc[i] += val[i]

    def total(spans, pred, field=1):
        return sum(v[field] for k, v in spans.items() if pred(*k))

    def count(spans, pred):
        return total(spans, pred, 0)

    named = lambda n: (lambda op, parent, name: name == n)  # noqa: E731
    prefix = lambda p: (lambda op, parent, name: name.startswith(p))  # noqa: E731
    exchange = lambda op, parent, name: name in EXCHANGE_SPANS  # noqa: E731

    def wire(spans, side):
        outer = lambda op, parent, name: name in STREAM_SPANS and parent not in STREAM_SPANS  # noqa: E731,E501
        mb = total(spans, outer, 3) / 1e6
        return {
            f"util.wire.{side}.lines_decoded_per_op": count(spans, named("wire.decode")) / ops,
            f"util.wire.{side}.decode_us_per_op": total(spans, named("wire.decode"), 2) / 1e3 / ops,
            f"util.wire.{side}.encode_us_per_op": total(spans, named("wire.encode"), 2) / 1e3 / ops,
            f"util.wire.{side}.stream_us_per_MB": total(spans, outer) / 1e3 / mb if mb else 0.0,
        }

    verbs_delta = sum(v["calls"] - cs["verbs"].get(k, {}).get("calls", 0)
                      for k, v in ce["verbs"].items())
    rpcs = count(client, exchange)
    requests = count(chirp_spans, named("server.request"))
    reqs = max(requests, 1)
    store_meta = lambda op, parent, name: (  # noqa: E731
        name.startswith("store.") and not name.startswith("store.data.")
        and not (parent or "").startswith("store."))
    data_mb = total(chirp_spans, prefix("store.data."), 3) / 1e6
    stored = (total(chirp_spans, lambda op, parent, name: name == "store.data.pwrite"
                    and parent != "store.write_blob", 3)
              + total(chirp_spans, named("store.write_blob"), 3))
    cache = {}
    if cs["cache"] is not None:
        cache = {k: ce["cache"][k] - cs["cache"][k] for k in ce["cache"]
                 if isinstance(ce["cache"][k], int)}
    hits = cache.get("hits", 0) + cache.get("negative_hits", 0)
    lookups = hits + cache.get("misses", 0)
    window = ce["t"] - cs["t"]
    cpu = [e - s for s, e in zip(cs["daemon_cpu"], ce["daemon_cpu"])]
    chirp_cpu = sum(c for c, d in zip(cpu, phase.daemons) if d.kind == "chirp")
    db_cpu = sum(c for c, d in zip(cpu, phase.daemons) if d.kind == "db")
    handshakes = count(whole, named("auth.handshake"))
    db_inserts = count(db_spans, named("db.insert"))
    db_queries = count(db_spans, named("db.query"))
    rows = total(db_spans, named("db.query"), 3)
    m = {
        "adapter.resolve_us_per_op": total(client, named("adapter.resolve")) / 1e3 / ops,
        "core.self_us_per_op": total(client, prefix("core."), 2) / 1e3 / ops,
        "core.rpcs_per_op": verbs_delta / ops,
        "core.rpcs_per_create": (
            count(client, lambda op, parent, name: op == wl.WRITE_KIND and name in EXCHANGE_SPANS)
            / creates if creates else 0.0),
        "cache.meta_hit_ratio": hits / lookups if lookups else 0.0,
        "cache.meta_lookups_per_op": lookups / ops,
        "cache.invalidations_per_op": cache.get("invalidations", 0) / ops,
        "cache.evictions_per_op": cache.get("evictions", 0) / ops,
        "chirp.client.self_us_per_rpc": (
            total(client, lambda op, parent, name: name.startswith(("chirp.client.", "db.client.")),
                  2) / 1e3 / rpcs if rpcs else 0.0),
        "transport.rpc_wait_us_per_op": total(client, exchange) / 1e3 / ops,
        "transport.checkout_wait_us_per_op": total(client, named("transport.checkout")) / 1e3 / ops,
        "transport.dials": count(client, named("transport.dial")),
        "transport.retries_per_1k_ops": (ce["retries"] - cs["retries"]) * 1e3 / ops,
        "transport.busy_refusals": count(chirp_spans, named("server.refuse")),
        **wire(client, "client"),
        **wire(server_spans, "server"),
        "auth.acl_parses_per_req": count(chirp_spans, named("auth.acl_parse")) / reqs,
        "auth.handshake_ms": (total(whole, named("auth.handshake")) / 1e6 / handshakes
                              if handshakes else 0.0),
        "chirp.backend.acl_us_per_req": total(chirp_spans, named("backend.effective_acl")) / 1e3 / reqs,
        "chirp.backend.acl_levels_per_req": count(
            chirp_spans, lambda op, parent, name: name == "store.isdir"
            and parent == "backend.effective_acl") / reqs,
        "chirp.backend.self_us_per_req": total(chirp_spans, prefix("backend."), 2) / 1e3 / reqs,
        "store.meta_calls_per_req": count(chirp_spans, store_meta) / reqs,
        "store.meta_us_per_req": total(chirp_spans, store_meta) / 1e3 / reqs,
        "store.data_us_per_MB": (total(chirp_spans, prefix("store.data.")) / 1e3 / data_mb
                                 if data_mb else 0.0),
        "store.fsyncs_per_op": count(chirp_spans, named("os.fsync")) / ops,
        "store.write_amplification": stored / user_written if user_written else 0.0,
        "chirp.server.requests_per_op": requests / ops,
        "chirp.server.cpu_ms_per_op": chirp_cpu * 1e3 / ops,
        "chirp.server.cpu_util": chirp_cpu / window,
        "client.cpu_ms_per_op": (ce["client_cpu"] - cs["client_cpu"]) * 1e3 / ops,
        "db.server.cpu_ms_per_op": db_cpu * 1e3 / ops,
        "db.rows_examined_per_result": count(db_spans, named("db.matches")) / rows if rows else 0.0,
        "db.query_us": total(db_spans, named("db.query")) / 1e3 / db_queries if db_queries else 0.0,
        "db.fsyncs_per_insert": (count(db_spans, named("os.fsync")) / db_inserts
                                 if db_inserts else 0.0),
        "db.compactions_per_1k_ops": count(db_spans, named("db.compact")) * 1e3 / ops,
        "trace.overhead_ratio": traced_rate / untraced_rate if untraced_rate else 0.0,
    }
    return m


def run_workload(name, seed, seconds, trace, ops_limit=None, corrupt=False):
    """One benchmark run; returns the result document (see ``main``)."""
    import tracing
    from repro.transport.recovery import RetryPolicy
    from workloads import WORKLOADS, Mismatch

    wl_cls = WORKLOADS[name]
    # Two sessions share this process the way two trapped applications
    # would share a machine; a short GIL switch interval keeps one
    # session's reply from waiting out the other's 5 ms time slice.
    sys.setswitchinterval(0.0005)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK)
    res = {"workload": name, "seed": seed, "mismatches": [], "failures": []}
    phases = [False, True] if trace else [False]
    try:
        for traced in phases:
            tracer = None
            if traced:
                tracer = tracing.Tracer()
                tracing.install_client(tracer)
            phase = Phase(wl_cls, workdir, traced, 1 if trace else BOOTS)
            wl = None
            try:
                if tracer:
                    # handshakes of the set-up sessions are part of set-up
                    tracer.set_op("setup")
                wl = wl_cls(seed, phase.addrs, RetryPolicy(clock=CountingClock()))
                wl.populate()
                # Start every window with no dirty pages left from set-up
                # (or from an earlier run): with ext4's ordered journal a
                # directory fsync otherwise waits for that writeback.
                os.sync()
                if tracer:
                    tracer.set_op(None)
                samples, marks, mism, fails, load = drive(wl, phase, seconds, tracer,
                                                            ops_limit)
                if corrupt:
                    wl.corrupt(phase.daemons[0].root)
                try:
                    wl.final_check()
                except Mismatch as exc:
                    mism.append(f"final check: {exc}")
                e2e, named, counts, attempted, failed, written = e2e_metrics(wl, samples, marks)
                res["mismatches"] += mism
                res["failures"] += fails
                res["oplog"] = [h.hexdigest() for h in wl.oplog]
                res["verbs"] = {k: v["calls"] for k, v in marks["end"]["verbs"].items()}
            finally:
                if wl is not None:
                    wl.close()
                phase.stop()
            if not traced:
                e2e["setup_s"] = statistics.median(phase.setup_times)
                e2e["server_rss_mb"] = sum(marks["end"]["rss"])
                res.update(e2e=e2e, named=named, counts=counts, attempted=attempted,
                           failed=failed, load=load, setup_times=phase.setup_times)
            else:
                res["layers"] = layer_metrics(wl, phase, marks, counts, written,
                                              res["e2e"]["ops_per_s"], e2e["ops_per_s"])
                res.update(traced_e2e=e2e, traced_attempted=attempted, traced_failed=failed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run's work directory is still there
    return res


def _spec():
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as f:
        return json.load(f)


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(res, trace, spec, bench):
    """Human-readable lines; the JSON result line follows them."""
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    w = spec["workloads"][res["workload"]]
    print(f"perfbench: workload={res['workload']} seed={res['seed']} trace={int(trace)}")
    print(f"  machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"traffic={spec['machine']['traffic']} "
          f"generator_malloc_thresholds_pinned={res['malloc_pinned']}")
    for key in ("sizes", "mix", "load", "cache", "flush"):
        print(f"  {key}: {w[key]}")
    threads, sockets = res["load"]
    print(f"  generator: {threads} threads, {sockets} client connections at window end "
          f"(limit {os.cpu_count()} each)")
    print(f"  ops in window by kind: {res['counts']}")
    print(f"  setup boots (s): {[round(t, 4) for t in res['setup_times']]}")
    print("  end-to-end (* = in the result line, with a bound in BENCHMARK.json):")
    gated = {m["name"] for m in bench["end_to_end"]}
    for name, value in {**res["e2e"], **res["named"]}.items():
        star = "*" if name in gated else " "
        unit = units.get(name) or {"read_MB_per_s": "MB/s", "write_MB_per_s": "MB/s",
                                   "cpu_steal_pct": "%"}.get(name, "ms")
        print(f"   {star}{name:<22} {_fmt(value):>12} {unit}")
    tail = max(res["attempted"] // 100, 0)
    print(f"    op_p99_ms covers {res['attempted']} ops, {tail} beyond it")
    ratio = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"    {'failed_ratio':<22} {_fmt(ratio):>12} ({res['failed']}/{res['attempted']})")
    if trace:
        print("  per-layer (traced run; metric -> end-to-end metric it should move @ workloads):")
        targets = spec["per_layer"]
        for name, value in res["layers"].items():
            t = targets[name]
            print(f"    {name:<42} {_fmt(value):>12} {units[name]:<6} -> {t['moves']} @ "
                  f"{','.join(t['workloads'])}")
    for line in res["failures"][:5]:
        print(f"  FAILED: {line}")
    for line in res["mismatches"][:5]:
        print(f"  MISMATCH: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("meta", "bulk", "dsfs", "dsdb"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="determinism and corrupted-read checks, then exit")
    parser.add_argument("--inject-corruption", action="store_true",
                        help="flip a stored byte before the final check (bulk only; "
                             "the run must then fail)")
    args = parser.parse_args(argv)
    # A terminated benchmark still stops its daemons (the finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    pinned = pin_malloc_thresholds()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.self_test:
        import selftest

        return selftest.main(run_workload)
    if args.workload is None:
        parser.error("--workload is required")
    if args.inject_corruption and args.workload != "bulk":
        parser.error("--inject-corruption applies to the bulk workload")
    spec = _spec()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       corrupt=args.inject_corruption)
    res["malloc_pinned"] = pinned
    report(res, bool(args.trace), spec, bench)
    values = res["layers"] if args.trace else res["e2e"]
    correct = not res["mismatches"]
    doc = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(doc), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
