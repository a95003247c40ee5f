"""The four seeded closed-loop workloads and their shadow models.

Every workload drives the public client stack against out-of-process
daemons.  Each session is a caller that blocks on every operation, like
an application trapped by the adapter.  A session draws its operations
from its own ``random.Random`` seeded from the workload seed, and only
touches its own part of the namespace, so its operation sequence depends
on the seed alone, never on timing.

A shadow model holds the expected names and content digests.  Every
read is checked against it, every mutation updates it, and
:meth:`Workload.final_check` compares the server-side listings with it
after the measured window.  Populations stay stationary: creates are
paired with unlinks, ingests with deletes, and bulk files are
overwritten in place.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import os
import random
import re
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from repro.adapter import Adapter
from repro.auth.methods import ClientCredentials
from repro.cache.policy import CachePolicy
from repro.core.dsdb import DSDB
from repro.core.dsfs import DSFS
from repro.core.pool import ClientPool
from repro.db.client import DatabaseClient
from repro.db.query import Query
from repro.transport.metrics import MetricsRegistry
from repro.transport.recovery import RetryPolicy

__all__ = ["WORKLOADS", "Mismatch", "Op"]

ZIPF_S = 0.9
_ENDPOINT = re.compile(r"[\w.-]+:\d+")
CREDS = ClientCredentials(methods=("unix",))


class Mismatch(Exception):
    """A read or listing disagreed with the shadow model."""


def digest(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


@dataclass
class Op:
    """One user operation: ``run`` is timed, ``finish`` checks and updates the model.

    ``finish(result)`` returns ``(bytes_read, bytes_written)``; it raises
    :class:`Mismatch` when the result contradicts the model.  ``fail``
    runs when ``run`` raised, and takes the touched item out of checking.
    """

    kind: str
    target: str
    run: Callable[[], object]
    finish: Callable[[object], tuple[int, int]]
    fail: Callable[[], None] = lambda: None


class Zipf:
    """Zipf-skewed picks over items, ranks interleaved across strata.

    ``strata`` are lists of item ids (e.g. one per directory depth).  The
    seed shuffles items inside each stratum; rank ``r`` goes to stratum
    ``r % len(strata)``, so how hot each stratum is does not depend on
    the seed and different seeds see the same mix of depths.
    """

    def __init__(self, strata: list[list[int]], rng: random.Random):
        shuffled = [rng.sample(s, len(s)) for s in strata]
        self.order = [
            s[i] for i in range(max(len(s) for s in shuffled)) for s in shuffled if i < len(s)
        ]
        self.cum = list(itertools.accumulate(1.0 / (r + 1) ** ZIPF_S
                                             for r in range(len(self.order))))

    def pick(self, rng: random.Random) -> int:
        return self.order[bisect.bisect_left(self.cum, rng.random() * self.cum[-1])]


def _expect_missing(call, path):
    def run():
        try:
            call(path)
        except FileNotFoundError:
            return None
        return path
    return run


def _check_missing(result):
    if result is not None:
        raise Mismatch(f"{result}: exists but was never created")
    return 0, 0


class Workload:
    """Base class; subclasses fill in the namespace, the mix and the checks."""

    NAME = ""
    DAEMONS: tuple[str, ...] = ()
    SESSIONS = 1
    READ_KIND = ""
    WRITE_KIND = ""
    #: per-workload report entries: name -> op kinds whose p50 it is
    NAMED_P50: dict[str, tuple[str, ...]] = {}

    def __init__(self, seed: int, addrs: list[tuple[str, int]], retry: RetryPolicy):
        self.seed = seed
        self.addrs = addrs
        self.retry = retry
        self.metrics = MetricsRegistry()
        self.rngs = [random.Random(f"{self.NAME}:{seed}:session{i}")
                     for i in range(self.SESSIONS)]
        self.oplog = [hashlib.sha1() for _ in range(self.SESSIONS)]

    def _adapter(self, cache: Optional[CachePolicy] = None) -> Adapter:
        # One connection per endpoint: the load model allows at most
        # nproc client connections in total.
        return Adapter(credentials=CREDS, policy=self.retry, max_conns_per_endpoint=1,
                       metrics=self.metrics, cache_policy=cache)

    def next_op(self, sid: int) -> Op:
        op = self._next_op(sid, self.rngs[sid])
        # Ports are ephemeral; the sequence is the kinds and inner paths.
        target = _ENDPOINT.sub("<server>", op.target)
        self.oplog[sid].update(f"{op.kind} {target}\n".encode())
        return op

    def _next_op(self, sid: int, rng: random.Random) -> Op:
        raise NotImplementedError

    def populate(self) -> None:
        raise NotImplementedError

    def final_check(self) -> None:
        raise NotImplementedError

    def cache_snapshot(self) -> Optional[dict]:
        return None

    def close(self) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# meta: many small requests on one file server, two sessions
# ---------------------------------------------------------------------------


class Meta(Workload):
    """100 chains of 6 nested dirs (600 dirs), 3 files of 4 KB per dir.

    Session ``s`` owns the chains with ``i % 2 == s``.  Each top-level
    directory carries its own ACL (one per user, as reserve-right
    ``mkdir`` makes them), so the ACL walk from a depth-``d`` directory
    reads ``d`` levels.
    """

    NAME = "meta"
    DAEMONS = ("chirp",)
    SESSIONS = 2
    READ_KIND = "small_read"
    WRITE_KIND = "create"
    NAMED_P50 = {"stat_p50_ms": ("stat",), "small_io_p50_ms": ("small_read", "small_write")}
    CHAINS, DEPTH, FILES, SIZE, MISSING = 100, 6, 3, 4096, 8

    def __init__(self, seed, addrs, retry):
        super().__init__(seed, addrs, retry)
        host, port = addrs[0]
        self.base = f"/cfs/{host}:{port}"
        self.adapters = [self._adapter() for _ in range(self.SESSIONS)]
        layout = random.Random(f"meta:{seed}:layout")
        self.dirs: list[list[str]] = [[] for _ in range(self.SESSIONS)]
        self.slots: list[list[list]] = [[] for _ in range(self.SESSIONS)]
        self.acl_rights: dict[str, str] = {}
        for i in range(self.CHAINS):
            sid = i % self.SESSIONS
            path = ""
            for depth in range(1, self.DEPTH + 1):
                path += f"/t{i:03d}" if depth == 1 else f"/d{depth}"
                self.dirs[sid].append(path)
                for f in range(self.FILES):
                    # slot: [dir, slot number, generation, digest, tainted]
                    self.slots[sid].append([path, f, 0, None, False])
        self.file_pick, self.dir_pick, self.top_pick = [], [], []
        for sid in range(self.SESSIONS):
            by_depth = [[] for _ in range(self.DEPTH)]
            files_by_depth = [[] for _ in range(self.DEPTH)]
            for d, path in enumerate(self.dirs[sid]):
                by_depth[path.count("/") - 1].append(d)
            for k, slot in enumerate(self.slots[sid]):
                files_by_depth[slot[0].count("/") - 1].append(k)
            self.file_pick.append(Zipf(files_by_depth, layout))
            self.dir_pick.append(Zipf(by_depth, layout))
            self.top_pick.append(Zipf([by_depth[0]], layout))

    @staticmethod
    def _name(slot) -> str:
        return f"{slot[0]}/f{slot[1]}.{slot[2]}"

    def populate(self) -> None:
        # Each session fills its own half on its own connection, at once.
        helper = threading.Thread(target=self._populate, args=(1,))
        helper.start()
        try:
            self._populate(0)
        finally:
            helper.join()
        if any(slot[3] is None for slot in self.slots[1]):
            raise RuntimeError("meta: populating the second half failed")

    def _populate(self, sid: int) -> None:
        ad = self.adapters[sid]
        rng = random.Random(f"meta:{self.seed}:populate{sid}")
        for path in self.dirs[sid]:
            ad.mkdir(self.base + path)
            if path.count("/") == 1:
                self._setacl(sid, path, "rl")
        for slot in self.slots[sid]:
            data = rng.randbytes(self.SIZE)
            ad.write_bytes(self.base + self._name(slot), data)
            slot[3] = digest(data)

    def _setacl(self, sid, path, rights):
        host, port = self.addrs[0]
        self.adapters[sid].pool.get(host, port).setacl(path, "unix:perfbench-guest", rights)
        self.acl_rights[path] = rights

    def _listing(self, sid, path) -> set[str]:
        names = {f"f{s[1]}.{s[2]}" for s in self.slots[sid] if s[0] == path}
        depth = path.count("/")
        if depth < self.DEPTH:
            names.add(f"d{depth + 1}")
        return names

    def _next_op(self, sid, rng):
        ad = self.adapters[sid]
        # stat 40, listdir 10, small read 25, small write 10, create+unlink
        # 10, stat of a missing name 4, setacl 1 (percent of operations)
        r = rng.random() * 100
        if r < 40 or 50 <= r < 85:
            slot = self.slots[sid][self.file_pick[sid].pick(rng)]
            if slot[4]:
                return self._next_op(sid, rng)
            path = self.base + self._name(slot)
            if r < 40:
                return Op("stat", path, lambda: ad.stat(path),
                          lambda st: self._check_stat(path, st))
            if r < 75:
                def small_read():
                    with ad.open(path, "rb") as f:
                        return f.read(self.SIZE)
                return Op("small_read", path, small_read,
                          lambda data: self._check_read(path, slot, data),
                          lambda: slot.__setitem__(4, True))
            data = rng.randbytes(self.SIZE)

            def small_write():
                with ad.open(path, "r+b") as f:
                    return f.write(data)

            def done(n):
                slot[3] = digest(data)
                return 0, n
            return Op("small_write", path, small_write, done,
                      lambda: slot.__setitem__(4, True))
        if r < 50:
            d = self.dirs[sid][self.dir_pick[sid].pick(rng)]
            path = self.base + d
            return Op("listdir", path, lambda: ad.listdir(path),
                      lambda names: self._check_listing(sid, d, names))
        if r < 95:
            slot = self.slots[sid][self.file_pick[sid].pick(rng)]
            if slot[4]:
                return self._next_op(sid, rng)
            old = self.base + self._name(slot)
            new = self.base + f"{slot[0]}/f{slot[1]}.{slot[2] + 1}"
            data = rng.randbytes(self.SIZE)

            def create():
                with ad.open(new, "wb") as f:
                    n = f.write(data)
                ad.unlink(old)
                return n

            def done(n):
                slot[2] += 1
                slot[3] = digest(data)
                return 0, n
            return Op("create", new, create, done, lambda: slot.__setitem__(4, True))
        if r < 99:
            d = self.dirs[sid][self.dir_pick[sid].pick(rng)]
            path = f"{self.base}{d}/nx{rng.randrange(self.MISSING)}"
            return Op("stat_missing", path, _expect_missing(ad.stat, path), _check_missing)
        top = self.dirs[sid][self.top_pick[sid].pick(rng)]
        rights = rng.choice(("rl", "rwl"))
        return Op("setacl", top, lambda: self._setacl(sid, top, rights), lambda _: (0, 0))

    def _check_stat(self, path, st):
        if st.st_size != self.SIZE:
            raise Mismatch(f"{path}: size {st.st_size}, expected {self.SIZE}")
        return 0, 0

    def _check_read(self, path, slot, data):
        if digest(data) != slot[3]:
            raise Mismatch(f"{path}: content differs from the last write")
        return len(data), 0

    def _check_listing(self, sid, d, names):
        # A slot whose operation failed may hold either name; skip it.
        tainted = {f"f{s[1]}." for s in self.slots[sid] if s[0] == d and s[4]}
        got = {n for n in names if not any(n.startswith(t) for t in tainted)}
        want = {n for n in self._listing(sid, d) if not any(n.startswith(t) for t in tainted)}
        if got != want:
            raise Mismatch(f"{d}: listing {sorted(got)} != model {sorted(want)}")
        return 0, 0

    def final_check(self):
        ad = self.adapters[0]
        tops = {f"t{i:03d}" for i in range(self.CHAINS)}
        root = set(ad.listdir(self.base + "/"))
        if root != tops:
            raise Mismatch(f"/: listing has {len(root)} entries, model {len(tops)}")
        for sid in range(self.SESSIONS):
            for d in self.dirs[sid]:
                self._check_listing(sid, d, ad.listdir(self.base + d))
        host, port = self.addrs[0]
        client = ad.pool.get(host, port)
        for top, rights in self.acl_rights.items():
            acl = client.getacl(top)
            got = acl.rights_for("unix:perfbench-guest").flags
            if got != set(rights):
                raise Mismatch(f"{top}: guest rights {sorted(got)}, expected {rights}")

    def close(self):
        for ad in self.adapters:
            ad.close()


# ---------------------------------------------------------------------------
# bulk: whole-file streaming on one file server
# ---------------------------------------------------------------------------


class Bulk(Workload):
    """8 files of 8 MB, overwritten (putfile) or read (getfile) whole."""

    NAME = "bulk"
    DAEMONS = ("chirp",)
    READ_KIND = "read"
    WRITE_KIND = "write"
    NAMED_P50 = {}
    FILES, SIZE = 8, 8 << 20

    def __init__(self, seed, addrs, retry):
        super().__init__(seed, addrs, retry)
        host, port = addrs[0]
        self.dir = f"/cfs/{host}:{port}/bulk"
        self.ad = self._adapter()
        # New contents are rotations of one seeded 8 MB buffer: seeded,
        # distinct per version, and cheap enough that generating them
        # does not swamp the streaming being measured.
        base_rng = random.Random(f"bulk:{seed}:base")
        self.base = base_rng.randbytes(self.SIZE)
        self.digests = [None] * self.FILES
        self.tainted = [False] * self.FILES

    def _content(self, rng) -> bytes:
        k = rng.randrange(1, self.SIZE)
        return self.base[k:] + self.base[:k]

    def path(self, i) -> str:
        return f"{self.dir}/b{i}"

    def populate(self):
        self.ad.mkdir(self.dir)
        rng = random.Random(f"bulk:{self.seed}:populate")
        for i in range(self.FILES):
            data = self._content(rng)
            self.ad.write_bytes(self.path(i), data)
            self.digests[i] = digest(data)

    def _next_op(self, sid, rng):
        i = rng.randrange(self.FILES)
        path = self.path(i)
        taint = lambda: self.tainted.__setitem__(i, True)  # noqa: E731
        if self.tainted[i]:
            return self._next_op(sid, rng)
        if rng.random() < 0.5:
            data = self._content(rng)
            new = digest(data)

            def done(n):
                self.digests[i] = new
                return 0, n
            return Op("write", path, lambda: self.ad.write_bytes(path, data), done, taint)
        return Op("read", path, lambda: self.ad.read_bytes(path),
                  lambda data: self._check(i, data), taint)

    def _check(self, i, data):
        if digest(data) != self.digests[i]:
            raise Mismatch(f"{self.path(i)}: content differs from the last write")
        return len(data), 0

    def final_check(self):
        names = set(self.ad.listdir(self.dir))
        want = {f"b{i}" for i in range(self.FILES)}
        if names != want:
            raise Mismatch(f"{self.dir}: listing {sorted(names)} != model {sorted(want)}")
        for i in range(self.FILES):
            if not self.tainted[i]:
                self._check(i, self.ad.read_bytes(self.path(i)))

    def corrupt(self, server_root: str) -> None:
        """Flip one byte of a stored file behind the server's back."""
        real = os.path.join(server_root, "bulk", "b0")
        with open(real, "r+b") as f:
            f.seek(self.SIZE // 2)
            byte = f.read(1)
            f.seek(self.SIZE // 2)
            f.write(bytes([byte[0] ^ 0xFF]))

    def close(self):
        self.ad.close()


# ---------------------------------------------------------------------------
# dsfs: a shared volume over two file servers
# ---------------------------------------------------------------------------


class Dsfs(Workload):
    """50 dirs x 40 files of 16 KB on a DSFS volume (directory on A, data on A+B).

    The metadata cache holds fewer entries than there are files, so it
    both hits and evicts.
    """

    NAME = "dsfs"
    DAEMONS = ("chirp", "chirp")
    READ_KIND = "read"
    WRITE_KIND = "create"
    NAMED_P50 = {"stat_p50_ms": ("stat",), "create_p50_ms": ("create",)}
    DIRS, FILES, SIZE, MISSING, META_ENTRIES = 50, 40, 16384, 8, 1024
    # Entries outlive the run, so they leave the cache only by eviction or
    # by this session's own invalidations.  With the 2 s default TTL the
    # hit ratio depended on how many ops fit in 2 s: a slower host also
    # missed more, and a faster build would have hit more.
    TTL = 600.0

    def __init__(self, seed, addrs, retry):
        super().__init__(seed, addrs, retry)
        (ha, pa) = addrs[0]
        self.vol = f"/dsfs/{ha}:{pa}@vol"
        self.policy = CachePolicy(mode="ttl", meta_entries=self.META_ENTRIES,
                                  meta_ttl=self.TTL, negative_ttl=self.TTL)
        self.ad = self._adapter(self.policy)
        layout = random.Random(f"dsfs:{seed}:layout")
        self.slots = [[f"/g{j:02d}", f, 0, None, False]
                      for j in range(self.DIRS) for f in range(self.FILES)]
        self.pick = Zipf([list(range(len(self.slots)))], layout)
        self.dir_pick = Zipf([list(range(self.DIRS))], layout)
        self.pending: Optional[Op] = None   # the read that follows a stat

    def _name(self, slot, gen=None) -> str:
        return f"{slot[0]}/f{slot[1]}.{slot[2] if gen is None else gen}"

    def populate(self):
        DSFS.create(self.ad.pool, *self.addrs[0], "/vol", self.addrs, name="vol")
        rng = random.Random(f"dsfs:{self.seed}:populate")
        for j in range(self.DIRS):
            self.ad.mkdir(f"{self.vol}/g{j:02d}")
        for slot in self.slots:
            data = rng.randbytes(self.SIZE)
            self.ad.write_bytes(self.vol + self._name(slot), data)
            slot[3] = digest(data)

    def _next_op(self, sid, rng):
        if self.pending is not None:
            op, self.pending = self.pending, None
            return op
        ad = self.ad
        r = rng.random() * 100
        if r < 85:
            slot = self.slots[self.pick.pick(rng)]
            if slot[4]:
                return self._next_op(sid, rng)
            taint = lambda: slot.__setitem__(4, True)  # noqa: E731
            path = self.vol + self._name(slot)
            if r < 50:
                # The stat and the read are timed as two ops.  The stat
                # costs no RPC on a metadata-cache hit and three on a
                # miss; the read costs two either way.  Timed together,
                # their p50 fell between the hit and miss latencies, where
                # a small change in the hit mix moved it a lot.
                self.pending = Op("read", path, lambda: ad.read_bytes(path),
                                  lambda data: self._check_data(path, slot, data), taint)

                def stat_failed():
                    taint()
                    self.pending = None
                return Op("stat", path, lambda: ad.stat(path).st_size,
                          lambda size: self._check_size(path, size), stat_failed)
            new = self.vol + self._name(slot, slot[2] + 1)
            if r < 75:
                data = rng.randbytes(self.SIZE)

                def create():
                    n = ad.write_bytes(new, data)
                    ad.unlink(path)
                    return n

                def done(n):
                    slot[2] += 1
                    slot[3] = digest(data)
                    return 0, n
                return Op("create", new, create, done, taint)

            def renamed(_):
                slot[2] += 1
                return 0, 0
            return Op("rename", new, lambda: ad.rename(path, new), renamed, taint)
        j = self.dir_pick.pick(rng)
        d = f"/g{j:02d}"
        if r < 95:
            return Op("listdir", self.vol + d, lambda: ad.listdir(self.vol + d),
                      lambda names: self._check_listing(d, names))
        path = f"{self.vol}{d}/nx{rng.randrange(self.MISSING)}"
        return Op("stat_missing", path, _expect_missing(ad.stat, path), _check_missing)

    def _check_size(self, path, size):
        if size != self.SIZE:
            raise Mismatch(f"{path}: stat size {size}, model {self.SIZE}")
        return 0, 0

    def _check_data(self, path, slot, data):
        if digest(data) != slot[3]:
            raise Mismatch(f"{path}: content differs from the model")
        return len(data), 0

    def _check_listing(self, d, names):
        want = {f"f{s[1]}.{s[2]}" for s in self.slots if s[0] == d and not s[4]}
        tainted = {f"f{s[1]}." for s in self.slots if s[0] == d and s[4]}
        got = {n for n in names if not any(n.startswith(t) for t in tainted)}
        if got != want:
            raise Mismatch(f"{d}: listing {sorted(got)} != model {sorted(want)}")
        return 0, 0

    def final_check(self):
        # A fresh, uncached session: what the servers hold, not the cache.
        with self._adapter() as fresh:
            top = set(fresh.listdir(self.vol + "/"))
            want = {f"g{j:02d}" for j in range(self.DIRS)}
            if top != want:
                raise Mismatch(f"volume root lists {len(top)} dirs, model {len(want)}")
            for j in range(self.DIRS):
                d = f"/g{j:02d}"
                self._check_listing(d, fresh.listdir(self.vol + d))

    def cache_snapshot(self):
        return self.ad.cache.snapshot()["meta"]

    def close(self):
        self.ad.close()


# ---------------------------------------------------------------------------
# dsdb: records in the metadata database, data on a file server
# ---------------------------------------------------------------------------


class Dsdb(Workload):
    """1,000 records of 16 KB, field ``group`` with 100 values, no indexes."""

    NAME = "dsdb"
    DAEMONS = ("db", "chirp")
    READ_KIND = "fetch"
    WRITE_KIND = "replace"
    NAMED_P50 = {"ingest_p50_ms": ("replace",), "fetch_p50_ms": ("fetch",),
                 "query_p50_ms": ("query",)}
    RECORDS, SIZE, GROUPS = 1000, 16384, 100

    def __init__(self, seed, addrs, retry):
        super().__init__(seed, addrs, retry)
        (dbh, dbp), fs = addrs
        self.db = DatabaseClient(dbh, dbp, credentials=CREDS, metrics=self.metrics)
        self.pool = ClientPool(CREDS, max_conns_per_endpoint=1, policy=retry,
                               metrics=self.metrics)
        self.dsdb = DSDB(self.db, self.pool, [fs], volume="dsdb")
        layout = random.Random(f"dsdb:{seed}:layout")
        # slot: [record id, name, group, digest, tainted]
        self.slots: list[list] = []
        self.fifo: list[int] = []
        self.seq = 0
        self.pick = Zipf([list(range(self.RECORDS))], layout)

    def _ingest(self, data, group):
        name = f"obj-{self.seq}"
        self.seq += 1
        rec = self.dsdb.ingest(name, data, {"group": group})
        return rec["id"], name

    def populate(self):
        rng = random.Random(f"dsdb:{self.seed}:populate")
        for k in range(self.RECORDS):
            data = rng.randbytes(self.SIZE)
            rid, name = self._ingest(data, k % self.GROUPS)
            self.slots.append([rid, name, k % self.GROUPS, digest(data), False])
            self.fifo.append(k)

    def _next_op(self, sid, rng):
        r = rng.random() * 100
        if r < 50:
            slot = self.slots[self.pick.pick(rng)]
            if slot[4]:
                return self._next_op(sid, rng)
            return Op("fetch", slot[1], lambda: self.dsdb.fetch(slot[0], verify=True),
                      lambda data: self._check_fetch(slot, data),
                      lambda: slot.__setitem__(4, True))
        if r < 70:
            g = rng.randrange(self.GROUPS)
            return Op("query", f"group={g}",
                      lambda: self.dsdb.query(Query.where(group=g)),
                      lambda recs: self._check_query(g, recs))
        k = self.fifo.pop(0)
        self.fifo.append(k)
        slot = self.slots[k]
        data = rng.randbytes(self.SIZE)
        old_id = slot[0]

        def replace():
            rid, name = self._ingest(data, slot[2])
            self.dsdb.delete(old_id)
            return rid, name

        def done(res):
            slot[0], slot[1] = res
            slot[3] = digest(data)
            return 0, len(data)
        return Op("replace", slot[1], replace, done, lambda: slot.__setitem__(4, True))

    def _check_fetch(self, slot, data):
        if digest(data) != slot[3]:
            raise Mismatch(f"{slot[1]}: fetched content differs from the model")
        return len(data), 0

    def _check_query(self, g, recs):
        got = {r["name"] for r in recs}
        want = {s[1] for s in self.slots if s[2] == g and not s[4]}
        maybe = {s[1] for s in self.slots if s[2] == g and s[4]}
        if got - maybe != want:
            raise Mismatch(f"group={g}: query returned {len(got)} names, model {len(want)}")
        return 0, 0

    def final_check(self):
        # Group by group: one reply line holding every record would
        # exceed the wire's line limit.
        for g in range(self.GROUPS):
            self._check_query(g, self.dsdb.query(Query.where(group=g)))
        records = self.db.count(Query.where(tss_kind="file"))
        if records != len(self.slots):
            raise Mismatch(f"database holds {records} records, model {len(self.slots)}")
        client = self.pool.get(*self.addrs[1])
        stored = len(client.getdir(self.dsdb.data_dir))
        if stored != records:
            raise Mismatch(f"{stored} data files for {records} records")

    def close(self):
        self.pool.close()
        self.db.close()


WORKLOADS = {w.NAME: w for w in (Meta, Bulk, Dsfs, Dsdb)}
