"""Span recording for the traced run, from outside the program.

A :class:`Tracer` wraps functions of the repo's public layers (and the
few private boundaries that mark a request: ``FileServer._dispatch``,
``MetadataDB._compact``).  Each call is a span with a name, a start, an
end and a parent: the span that was open on the same thread when it
began.  Spans are folded into aggregates as they close, keyed by
``(op, parent, name)`` where ``op`` is the generator's current user
operation (``None`` inside daemons).  Each aggregate holds the count,
total duration, self time (duration minus the part covered by child
spans) and bytes moved.  Folding keeps memory flat over a long run on a
shared machine; no per-span record survives.

The same module installs the wrappers in the generator
(:func:`install_client`) and, through ``launch.py``, in the daemons
(:func:`install_server`).
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

__all__ = ["Tracer", "install_client", "install_server", "STREAM_SPANS", "EXCHANGE_SPANS"]

_ZERO = (0, 0, 0, 0)

#: spans that move payload through ``LineStream`` (bytes counted)
STREAM_SPANS = frozenset(
    {"wire.read_exact", "wire.read_into_file", "wire.write_from_file", "wire.write"}
)
#: ``Connection`` methods that are one request/reply exchange each
EXCHANGE_SPANS = frozenset(
    {"transport.rpc", "transport.pread", "transport.getdir", "transport.getfile",
     "transport.putfile", "transport.getacl"}
)


class _ThreadState:
    __slots__ = ("stack", "table", "op")

    def __init__(self):
        self.stack: list = []
        self.table: dict = {}
        self.op = None


class Tracer:
    """Thread-aware span recorder with lock-free per-thread tables."""

    def __init__(self):
        self._local = threading.local()
        self._tables: list[dict] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            self._tables.append(st.table)
        return st

    def set_op(self, op) -> None:
        """Name the user operation that spans on this thread belong to."""
        self._state().op = op

    def wrap(self, name: str, fn, nbytes=None):
        """Return ``fn`` recording a span per call.

        ``nbytes(args, kwargs, result)`` gives the bytes a call moved.
        """
        state = self._state
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [name, 0]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                n = nbytes(args, kwargs, result) if nbytes is not None else 0
                key = (st.op, parent[0] if parent is not None else None, name)
                c = st.table.get(key, _ZERO)
                # One store of a fresh tuple: a concurrent snapshot sees
                # either the old or the new aggregate, never a mix.
                st.table[key] = (c[0] + 1, c[1] + dt, c[2] + dt - frame[1], c[3] + n)

        traced.__wrapped_by_tracer__ = True
        return traced

    def snapshot(self) -> dict:
        """Merged aggregates: ``{(op, parent, name): [count, ns, self_ns, bytes]}``."""
        merged: dict = {}
        for table in list(self._tables):
            for key, val in list(table.items()):
                m = merged.setdefault(key, [0, 0, 0, 0])
                for i in range(4):
                    m[i] += val[i]
        return merged

    # -- installation helpers ---------------------------------------------

    def patch_method(self, cls, attr: str, name: str, nbytes=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, nbytes)))
        elif isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__, nbytes)))
        elif inspect.isfunction(raw) and not getattr(raw, "__wrapped_by_tracer__", False):
            setattr(cls, attr, self.wrap(name, raw, nbytes))

    def patch_public(self, cls, prefix: str) -> None:
        """Wrap every public plain method defined on ``cls`` itself."""
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(raw):
                continue
            self.patch_method(cls, attr, f"{prefix}.{attr}")

    def patch_function(self, module, attr: str, name: str) -> None:
        """Wrap a module function and every module binding that imported it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original)
        for mod in list(sys.modules.values()):
            if mod is not None and getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)


def _len_arg(index: int, key: str):
    def nbytes(args, kwargs, result):
        value = kwargs.get(key, args[index] if len(args) > index else 0)
        return value if isinstance(value, int) else len(value)
    return nbytes


def _len_result(args, kwargs, result):
    return len(result) if result is not None else 0


def _install_wire(tracer: Tracer) -> None:
    from repro.util import wire

    tracer.patch_function(wire, "pack_line", "wire.encode")
    tracer.patch_function(wire, "unpack_line", "wire.decode")
    ls = wire.LineStream
    tracer.patch_method(ls, "read_exact", "wire.read_exact", _len_arg(1, "length"))
    tracer.patch_method(ls, "read_into_file", "wire.read_into_file", _len_arg(2, "length"))
    tracer.patch_method(ls, "write_from_file", "wire.write_from_file", _len_arg(2, "length"))
    tracer.patch_method(ls, "write", "wire.write", _len_arg(1, "data"))


def _install_acl(tracer: Tracer) -> None:
    from repro.auth.acl import Acl

    tracer.patch_method(Acl, "from_text", "auth.acl_parse")


def install_client(tracer: Tracer) -> None:
    """Wrap the generator-side layers: adapter, core, client, transport, wire."""
    import repro.adapter.adapter as adapter_mod
    import repro.auth.methods as methods
    import repro.chirp.client as client_mod
    import repro.core.cfs as cfs
    import repro.core.dsdb as dsdb
    import repro.core.interface as interface
    import repro.core.metastore as metastore
    import repro.core.placement as placement
    import repro.core.pool as pool
    import repro.core.stubfs as stubfs
    import repro.core.dsfs as dsfs
    import repro.db.client as db_client
    import repro.transport.connection as connection
    import repro.transport.endpoint as endpoint

    tracer.patch_method(adapter_mod.Adapter, "resolve", "adapter.resolve")
    for cls in (cfs.CFS, cfs.ChirpFileHandle, stubfs.StubFilesystem, dsfs.DSFS,
                metastore.ChirpMetadataStore, placement.RoundRobinPlacement,
                dsdb.DSDB, interface.Filesystem, pool.ClientPool):
        tracer.patch_public(cls, f"core.{cls.__name__}")
    tracer.patch_public(client_mod.ChirpClient, "chirp.client")
    tracer.patch_public(db_client.DatabaseClient, "db.client")
    conn = connection.Connection
    for attr in ("rpc", "pread", "getdir", "getfile", "putfile", "getacl"):
        tracer.patch_method(conn, attr, f"transport.{attr}")
    tracer.patch_public(conn, "transport.conn")
    tracer.patch_method(endpoint.Endpoint, "checkout", "transport.checkout")
    tracer.patch_method(endpoint.Endpoint, "_dial", "transport.dial")
    tracer.patch_function(methods, "authenticate_client", "auth.handshake")
    _install_wire(tracer)
    _install_acl(tracer)


def install_server(tracer: Tracer) -> None:
    """Wrap the daemon-side layers: server, backend, store, wire, acl, db, fsync."""
    import os

    import repro.chirp.backend as backend
    import repro.chirp.server as server  # imports every BlobStore subclass
    import repro.db.engine as engine
    import repro.db.query as query
    from repro.store.interface import BlobHandle, BlobStore

    tracer.patch_method(server.FileServer, "_dispatch", "server.request")
    tracer.patch_method(server.FileServer, "_refuse_request", "server.refuse")
    tracer.patch_method(server.FileServer, "_refuse_connection", "server.refuse")
    tracer.patch_public(backend.Backend, "backend")
    blob_api = {a for a in vars(BlobStore) if not a.startswith("_")}
    handle_api = {a for a in vars(BlobHandle) if not a.startswith("_")}

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    for cls in (BlobStore, *subclasses(BlobStore)):
        for attr in blob_api & set(vars(cls)):
            nb = _len_arg(2, "data") if attr == "write_blob" else None
            tracer.patch_method(cls, attr, f"store.{attr}", nb)
    for cls in (BlobHandle, *subclasses(BlobHandle)):
        for attr in handle_api & set(vars(cls)):
            if attr == "pwrite":
                tracer.patch_method(cls, attr, "store.data.pwrite", _len_arg(1, "data"))
            elif attr == "pread":
                tracer.patch_method(cls, attr, "store.data.pread", _len_result)
            else:
                tracer.patch_method(cls, attr, f"store.handle.{attr}")
    os.fsync = tracer.wrap("os.fsync", os.fsync)
    db = engine.MetadataDB
    for attr in ("insert", "get", "update", "delete", "count", "all_records"):
        tracer.patch_method(db, attr, f"db.{attr}")
    tracer.patch_method(db, "query", "db.query", _len_result)
    tracer.patch_method(db, "_compact", "db.compact")
    tracer.patch_method(query.Query, "matches", "db.matches")
    _install_wire(tracer)
    _install_acl(tracer)
