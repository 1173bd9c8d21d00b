"""The MetaData Servers: where namespace and layout operations serialize.

Lustre funnels opens, creates, stats, and layout lookups through the MDS.
Data writes bypass it, but metadata-chatty formats do not: HDF5's
per-chunk index updates and header rewrites generate MDS and lock traffic
that serializes the whole job — the mechanism behind the paper's Figure 6
HDF5 floor ("the data performance improves at the expense of additional
metadata operations", §2.1).

Two layers live here:

* :class:`Mds` — one metadata server with a single FCFS service unit, a
  failure domain (``fail``/``recover``, driven by ``repro.fault``), and
  the *owned* slice of the namespace: the entry lists of every directory
  hashed to this server.

* :class:`MdsShardGroup` — Lustre DNE (Distributed NamEspace): N
  :class:`Mds` instances with deterministic parent-directory-hash
  routing.  An operation on path ``p`` is served by the shard that owns
  ``dirname(p)`` (CRC-32C of the parent directory, modulo the shard
  count), so all entries of one directory — and its ``readdir`` — stay on
  a single shard while distinct directories spread across the group.
  With one shard the group degenerates to exactly the pre-DNE event
  sequence: routing is pure arithmetic, no simulated events are added.

The namespace itself (directory tree + paged ``readdir``) is *logical*
state, updated for free by :class:`~repro.pfs.lustre.LustreCluster`'s
create/unlink/rename; the *timing* of every lookup, stat, and readdir
page is charged by the client through :meth:`MdsShardGroup.perform`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import sim
from repro.errors import MdsUnavailableError
from repro.trace import runtime as _trace
from repro.util.crc import crc32c


#: Service time (seconds) per metadata operation class.
DEFAULT_OP_COSTS = {
    "create": 2e-4,
    "open": 1e-4,
    "close": 5e-5,
    "stat": 1e-4,
    "setattr": 1e-4,
    "unlink": 2e-4,
    "mkdir": 2e-4,
    "lookup": 1e-4,
    "lock": 1e-4,
    #: one readdir *page* (a directory block of entries, not one entry) —
    #: dearer than a lookup because the server walks a dirent block
    "readdir": 3e-4,
}


@dataclass
class MdsStats:
    requests: int = 0
    busy_time: float = 0.0
    ops: dict = field(default_factory=dict)
    #: failure-domain transitions (driven by repro.fault)
    failures: int = 0
    rejected_requests: int = 0


def _parent_dir(path: str) -> str:
    """The directory owning ``path``'s entry ("" for top-level names)."""
    index = path.rfind("/")
    return path[:index] if index > 0 else ""


class Mds:
    """A single metadata server with one FCFS service unit."""

    def __init__(
        self,
        engine: sim.Engine,
        op_costs: dict | None = None,
        index: int = 0,
        cost_scale: float = 1.0,
    ):
        self.engine = engine
        self.index = index
        self.op_costs = dict(DEFAULT_OP_COSTS)
        if op_costs:
            self.op_costs.update(op_costs)
        if cost_scale != 1.0:
            self.op_costs = {
                op: cost * cost_scale for op, cost in self.op_costs.items()
            }
        self._service = sim.Resource(engine, capacity=1, name=f"mds{index}")
        self.stats = MdsStats()
        #: failure-domain state, flipped by a FaultInjector; the healthy
        #: path pays one attribute check per request.
        self.up = True
        #: the slice of the namespace this shard owns: directory path →
        #: entry-name set, for every directory hashed to this server
        self._dirs: dict[str, set[str]] = {}

    # -- failure domain (driven by repro.fault) ---------------------------

    def fail(self) -> None:
        """Take this MDS down: every request is rejected until recovery.

        The namespace survives (it lives on the MDT's storage); only
        service stops, exactly like a crashed OST.
        """
        self.up = False
        self.stats.failures += 1

    def recover(self) -> None:
        """Bring the MDS back; queued clients resume via their retry path."""
        self.up = True

    # -- service -----------------------------------------------------------

    def perform_lw(self, op: str):
        """Execute one metadata op on this server (``yield from`` it)."""
        cost = self.op_costs.get(op)
        if cost is None:
            raise KeyError(f"unknown MDS op {op!r}")
        if not self.up:
            self.stats.rejected_requests += 1
            raise MdsUnavailableError(
                f"mds{self.index} is down", shard_index=self.index
            )
        engine = self.engine
        queued = engine.now
        yield from self._service.acquire_lw()
        try:
            start = engine.now
            _trace.observe("pfs.mds.wait", start - queued)
            yield cost
            self.stats.requests += 1
            self.stats.ops[op] = self.stats.ops.get(op, 0) + 1
            busy = engine.now - start
            self.stats.busy_time += busy
            _trace.observe("pfs.mds.service", busy)
        finally:
            self._service.release()

    perform = sim.blocking_form(perform_lw)

    @property
    def queue_length(self) -> int:
        return self._service.queue_length


class MdsShardGroup:
    """DNE: N metadata servers behind deterministic parent-dir routing.

    The group is the cluster-facing MDS.  Routing is a pure function of
    the path — ``crc32c(dirname(path)) % shards`` — so the same path maps
    to the same shard across runs and across the thread/light-process
    backends, and all entries of one directory co-locate with that
    directory's ``readdir``.
    """

    def __init__(
        self,
        engine: sim.Engine,
        shards: int = 1,
        op_costs: dict | None = None,
        cost_scale: float = 1.0,
    ):
        if shards < 1:
            raise ValueError(f"need at least one MDS shard, got {shards}")
        self.engine = engine
        self.shards = [
            Mds(engine, op_costs=op_costs, index=i, cost_scale=cost_scale)
            for i in range(shards)
        ]
        #: directory path → owning shard index (routing is hot: one dict
        #: probe on repeat paths instead of a CRC per op)
        self._route: dict[str, int] = {}

    # -- routing -----------------------------------------------------------

    def shard_index_for_dir(self, dirpath: str) -> int:
        """Owning shard of ``dirpath``'s entry list (deterministic)."""
        index = self._route.get(dirpath)
        if index is None:
            index = crc32c(dirpath.encode()) % len(self.shards)
            self._route[dirpath] = index
        return index

    def shard_for_dir(self, dirpath: str) -> Mds:
        return self.shards[self.shard_index_for_dir(dirpath)]

    def shard_for(self, path: str) -> Mds:
        """The shard serving namespace operations on ``path``."""
        return self.shards[self.shard_index_for_dir(_parent_dir(path))]

    # -- service (charged by the client) -----------------------------------

    def perform_lw(self, op: str, path: Optional[str] = None):
        """Execute one metadata op on the shard owning ``path``."""
        yield from self.shard_for(path if path is not None else "").perform_lw(
            op
        )

    perform = sim.blocking_form(perform_lw)

    # -- namespace (logical state; timing is charged separately) -----------

    def ns_register(self, path: str) -> None:
        """Record ``path`` (and any missing ancestors) in the namespace."""
        while True:
            parent = _parent_dir(path)
            name = path[len(parent) + 1 :] if parent else path
            entries = self.shard_for_dir(parent)._dirs.setdefault(
                parent, set()
            )
            if name in entries or not name:
                return  # ancestors are already present
            entries.add(name)
            if not parent:
                return
            path = parent

    def ns_unregister(self, path: str) -> None:
        """Drop ``path``'s entry (ancestor directories persist)."""
        parent = _parent_dir(path)
        name = path[len(parent) + 1 :] if parent else path
        entries = self.shard_for_dir(parent)._dirs.get(parent)
        if entries is not None:
            entries.discard(name)

    def ns_rename(self, src: str, dst: str) -> None:
        self.ns_unregister(src)
        self.ns_register(dst)

    def entries(self, dirpath: str) -> list[str]:
        """Sorted entry names of ``dirpath`` (empty for unknown dirs)."""
        entries = self.shard_for_dir(dirpath)._dirs.get(dirpath)
        return sorted(entries) if entries else []

    # -- aggregate views ----------------------------------------------------

    @property
    def stats(self) -> MdsStats:
        """Group-wide totals (a fresh merged snapshot, not a live object)."""
        agg = MdsStats()
        for shard in self.shards:
            s = shard.stats
            agg.requests += s.requests
            agg.busy_time += s.busy_time
            agg.failures += s.failures
            agg.rejected_requests += s.rejected_requests
            for op, count in s.ops.items():
                agg.ops[op] = agg.ops.get(op, 0) + count
        return agg

    @property
    def queue_length(self) -> int:
        return sum(shard.queue_length for shard in self.shards)

    def __len__(self) -> int:
        return len(self.shards)
