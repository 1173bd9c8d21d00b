"""The Lustre cluster: configuration, namespace, and striped files.

:class:`LustreCluster` owns the simulated hardware (OSTs, OSSs, MDS) and a
flat namespace of :class:`LustreFile` objects.  Logical file *contents*
are kept eagerly (the written buffers themselves, by reference) so the
storage engine running on top gets its bytes back verbatim; *timing* is
charged separately by the client/servers in simulated time.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

from repro import sim
from repro.errors import InvalidArgumentError, NotFoundError
from repro.io.scheduler import POLICIES
from repro.pfs.disk import DiskProfile, HDDProfile
from repro.pfs.layout import StripeLayout
from repro.pfs.mds import MdsShardGroup
from repro.pfs.oss import Oss
from repro.pfs.ost import Ost
from repro.trace import runtime as _trace
from repro.util.humanize import parse_size
from repro.util.zeros import zeros


@dataclass
class LustreConfig:
    """Cluster-wide parameters (defaults = the calibrated Viking model)."""

    num_osts: int = 45
    num_oss: int = 2
    disk: DiskProfile = field(default_factory=HDDProfile)
    oss_bandwidth: float | str = "1.4G"
    oss_rpc_overhead: float = 3e-5
    lock_switch_time: float = 1e-3
    mds_op_costs: Optional[dict] = None
    #: DNE metadata shards; 1 = single MDS, byte-identical to pre-DNE runs
    mds_shards: int = 1
    #: uniform multiplier on every MDS op cost (what-if knob for faster/
    #: slower metadata targets; 1.0 = calibrated Viking costs)
    mds_cost_scale: float = 1.0
    #: client-side metadata cache (TTL + negative entries); off by default
    #: so the default config replays existing schedules bit-identically
    md_cache: bool = False
    md_cache_ttl: float = 5.0
    default_stripe_size: int | str = "1M"
    default_stripe_count: int = 4
    #: Lustre client max RPC size (osc.max_pages_per_rpc * page size)
    rpc_size: int | str = "4M"
    #: Lustre client max concurrent RPCs (osc.max_rpcs_in_flight)
    max_rpcs_in_flight: int = 4
    #: per-node storage NIC bandwidth (LNET)
    client_bandwidth: float | str = "300M"
    client_rpc_latency: float = 1e-4
    #: max uniform per-RPC latency jitter (0 = fully deterministic);
    #: repetitions draw from rep-seeded generators, and the harness takes
    #: the max, matching the paper's 10-runs/max protocol (§4)
    client_jitter: float = 0.0
    #: seed base for jitter generators
    jitter_seed: int = 0
    #: keep logical file bytes (needed when a real engine runs on top)
    store_data: bool = True
    #: client RPC timeout (simulated seconds) — how long a client waits
    #: for a reply before declaring the RPC lost (Lustre's obd_timeout,
    #: scaled to the model's time base)
    rpc_timeout: float = 5.0
    #: retry budget per RPC before the error escalates to
    #: RetryExhaustedError (only consulted when faults are injected)
    rpc_max_retries: int = 6
    #: exponential backoff: first retry waits rpc_backoff_base seconds,
    #: doubling per attempt, capped at rpc_backoff_max, with a seeded
    #: multiplicative jitter of up to rpc_backoff_jitter (fraction)
    rpc_backoff_base: float = 0.05
    rpc_backoff_max: float = 2.0
    rpc_backoff_jitter: float = 0.2
    #: client I/O admission policy ("fifo" | "strict" | "drr"); fifo is
    #: a pure inline pass-through, bit-identical to the unscheduled path
    io_policy: str = "fifo"
    #: cap on COMPACTION-class bytes/s per client (token bucket); None
    #: or 0 disables throttling
    io_compaction_bandwidth: Optional[float | str] = None

    def __post_init__(self) -> None:
        self.oss_bandwidth = float(parse_size(self.oss_bandwidth))
        self.default_stripe_size = parse_size(self.default_stripe_size)
        self.rpc_size = parse_size(self.rpc_size)
        self.client_bandwidth = float(parse_size(self.client_bandwidth))
        if self.num_osts < 1 or self.num_oss < 1:
            raise InvalidArgumentError("need at least one OST and one OSS")
        if not 1 <= self.default_stripe_count <= self.num_osts:
            raise InvalidArgumentError("bad default stripe count")
        if self.rpc_timeout <= 0 or self.rpc_max_retries < 0:
            raise InvalidArgumentError("bad RPC retry policy")
        if self.mds_shards < 1:
            raise InvalidArgumentError("need at least one MDS shard")
        if self.mds_cost_scale <= 0:
            raise InvalidArgumentError("mds_cost_scale must be > 0")
        if self.md_cache_ttl <= 0:
            raise InvalidArgumentError("md_cache_ttl must be > 0")
        if min(
            self.rpc_backoff_base, self.rpc_backoff_max, self.rpc_backoff_jitter
        ) < 0:
            raise InvalidArgumentError("backoff parameters must be >= 0")
        if self.io_policy not in POLICIES:
            raise InvalidArgumentError(
                f"unknown io_policy {self.io_policy!r} "
                f"(expected one of {POLICIES})"
            )
        if self.io_compaction_bandwidth is not None:
            self.io_compaction_bandwidth = float(
                parse_size(self.io_compaction_bandwidth)
            )
            if self.io_compaction_bandwidth < 0:
                raise InvalidArgumentError(
                    "io_compaction_bandwidth must be >= 0"
                )
            if self.io_compaction_bandwidth == 0:
                self.io_compaction_bandwidth = None


class LustreFile:
    """One striped file: layout + logical contents.

    Contents are an ordered chunk list: ``_starts[i]`` is the file offset
    of buffer ``_chunks[i]``, the chunks tile ``[0, stored end)`` with no
    gap, and every buffer is the writer's own, held by reference (a hole
    is a shared :func:`~repro.util.zeros.zeros` buffer).  A data-less file
    has neither list.
    """

    __slots__ = (
        "file_id", "path", "layout", "size", "_starts", "_chunks",
        "__weakref__",
    )

    _MAX_OSTS_PER_FILE = 4096  # object-id namespace slot per file

    def __init__(
        self,
        file_id: int,
        path: str,
        layout: StripeLayout,
        store_data: bool,
    ):
        self.file_id = file_id
        self.path = path
        self.layout = layout
        self.size = 0
        self._starts: Optional[list[int]] = [] if store_data else None
        self._chunks: Optional[list] = [] if store_data else None

    def object_id(self, ost_index: int) -> int:
        """Globally-unique id of this file's object on ``ost_index``."""
        return self.file_id * self._MAX_OSTS_PER_FILE + ost_index

    def store(self, offset: int, parts: list) -> None:
        """Record logical contents (no simulated cost — timing is separate).

        ``parts`` are buffers that follow each other from ``offset``.  They
        are kept by reference, not copied: the caller hands them over and
        must not change them afterwards.
        """
        end = offset + sum(map(len, parts))
        chunks = self._chunks
        if chunks is not None and end > offset:
            starts = self._starts
            stored = starts[-1] + len(chunks[-1]) if chunks else 0
            if offset >= stored:  # at or past EOF: the common append
                if offset > stored:
                    starts.append(stored)
                    chunks.append(zeros(offset - stored))
                for part in parts:
                    if part:
                        starts.append(offset)
                        chunks.append(part)
                        offset += len(part)
            else:
                self._overwrite(offset, end, parts)
        if end > self.size:
            self.size = end

    def _overwrite(self, offset: int, end: int, parts) -> None:
        """Splice ``parts`` over ``[offset, end)``, splitting the chunks
        it covers at its edges with ``memoryview`` slices."""
        starts = self._starts
        chunks = self._chunks
        first = bisect_right(starts, offset) - 1
        last = bisect_right(starts, end - 1) - 1
        new_starts = []
        new_chunks = []
        head = offset - starts[first]
        if head:
            new_starts.append(starts[first])
            new_chunks.append(memoryview(chunks[first])[:head])
        position = offset
        for part in parts:
            if part:
                new_starts.append(position)
                new_chunks.append(part)
                position += len(part)
        tail = end - starts[last]
        if tail < len(chunks[last]):
            new_starts.append(end)
            new_chunks.append(memoryview(chunks[last])[tail:])
        starts[first:last + 1] = new_starts
        chunks[first:last + 1] = new_chunks

    def load(self, offset: int, nbytes: int) -> bytes:
        """Read logical contents (zero-filled holes, short at EOF)."""
        end = min(offset + nbytes, self.size)
        if end <= offset:
            return b""
        chunks = self._chunks
        if not chunks:
            return zeros(end - offset)
        starts = self._starts
        index = bisect_right(starts, offset) - 1
        chunk = chunks[index]
        start = starts[index]
        if end - start <= len(chunk):  # inside one chunk: one slice copy
            if type(chunk) is bytes:
                return chunk[offset - start:end - start]
            return bytes(memoryview(chunk)[offset - start:end - start])
        if offset - start >= len(chunk):  # past every stored byte
            return zeros(end - offset)
        views = [memoryview(chunk)[offset - start:]]
        position = start + len(chunk)
        count = len(chunks)
        index += 1
        while position < end and index < count:
            chunk = chunks[index]
            views.append(memoryview(chunk)[:end - position])
            position += len(chunk)
            index += 1
        if position < end:  # a hole past the stored bytes
            views.append(zeros(end - position))
        return b"".join(views)

    def extend_size(self, offset: int, nbytes: int) -> None:
        """Size bookkeeping for data-less mode."""
        self.size = max(self.size, offset + nbytes)


class LustreCluster:
    """Simulated hardware + namespace, attached to one engine."""

    def __init__(self, engine: sim.Engine, config: Optional[LustreConfig] = None):
        self.engine = engine
        self.config = config or LustreConfig()
        self.osts = [
            Ost(
                engine,
                index,
                self.config.disk,
                lock_switch_time=self.config.lock_switch_time,
            )
            for index in range(self.config.num_osts)
        ]
        self.osses = [
            Oss(
                engine,
                index,
                bandwidth=self.config.oss_bandwidth,
                rpc_overhead=self.config.oss_rpc_overhead,
            )
            for index in range(self.config.num_oss)
        ]
        self.mds = MdsShardGroup(
            engine,
            shards=self.config.mds_shards,
            op_costs=self.config.mds_op_costs,
            cost_scale=self.config.mds_cost_scale,
        )
        metrics = _trace.METRICS
        if metrics is not None:
            for ost in self.osts:
                metrics.register(f"pfs.ost{ost.index}", ost.stats)
            for oss in self.osses:
                metrics.register(f"pfs.oss{oss.index}", oss.stats)
            # The aggregate keeps its pre-DNE namespace; ``stats`` is a
            # merged snapshot property, so register a callable, not the
            # (ephemeral) dataclass instance.
            metrics.register(
                "pfs.mds", lambda m=self.mds: dataclasses.asdict(m.stats)
            )
            if len(self.mds) > 1:
                for shard in self.mds.shards:
                    metrics.register(f"pfs.mds{shard.index}", shard.stats)
        sampler = _trace.SAMPLER
        if sampler is not None:
            for ost in self.osts:
                sampler.register(
                    f"pfs.ost{ost.index}.queue_depth",
                    lambda o=ost: o.queue_length,
                )
                # Cumulative seconds the array has been busy; the
                # reporting layer differences consecutive points into a
                # per-interval utilization fraction.
                sampler.register(
                    f"pfs.ost{ost.index}.busy_time",
                    lambda o=ost: o.stats.busy_time,
                )
            for shard in self.mds.shards:
                sampler.register(
                    f"pfs.mds{shard.index}.queue_depth",
                    lambda m=shard: m.queue_length,
                )
                sampler.register(
                    f"pfs.mds{shard.index}.busy_time",
                    lambda m=shard: m.stats.busy_time,
                )
        #: installed by repro.fault.FaultInjector.install(); None means
        #: every fault hook is a single is-None check (healthy fast path)
        self.fault_injector = None
        #: every LustreClient registers its ClientStats here so cluster-wide
        #: reports can aggregate retry/timeout counters.  The cluster keeps
        #: the stats, not the clients: a client points at its cluster, and
        #: a back-reference would make a finished cluster (and its file
        #: payloads) a cycle that only a full collection frees.
        self.client_stats: list = []  # ClientStats
        #: metadata caches needing invalidation broadcasts on namespace
        #: mutations; only cache-enabled clients register, so the default
        #: config pays nothing here
        self._md_caches: list = []
        self._files: dict[str, LustreFile] = {}
        self._next_file_id = 1
        self._next_start_ost = 0
        #: scratch space for format models that need run-shared logical
        #: state (e.g. the BP5 metadata catalog) — keyed by model/path.
        self.app_state: dict = {}

    # -- namespace (logical state; MDS *timing* is charged by the client) --

    def create(
        self,
        path: str,
        stripe_count: Optional[int] = None,
        stripe_size: Optional[int | str] = None,
        store_data: Optional[bool] = None,
    ) -> LustreFile:
        """Create (or truncate) a file with the given striping.

        ``store_data`` overrides the cluster default per file: the LSM
        engine's files must keep real bytes even when bulk benchmark
        files run data-less.
        """
        layout = StripeLayout(  # parses a "1M"-style stripe_size itself
            stripe_size=(
                stripe_size
                if stripe_size is not None
                else self.config.default_stripe_size
            ),
            stripe_count=(
                stripe_count
                if stripe_count is not None
                else self.config.default_stripe_count
            ),
            start_ost=self._next_start_ost,
            num_osts=self.config.num_osts,
        )
        # Round-robin object allocation, Lustre's default QOS-free policy:
        # each new file starts on the next OST, spreading files evenly.
        self._next_start_ost = (
            self._next_start_ost + layout.stripe_count
        ) % self.config.num_osts
        file = LustreFile(
            self._next_file_id,
            path,
            layout,
            self.config.store_data if store_data is None else store_data,
        )
        self._next_file_id += 1
        self._files[path] = file
        self.mds.ns_register(path)
        self._invalidate_md(path)
        return file

    def lookup(self, path: str) -> LustreFile:
        try:
            return self._files[path]
        except KeyError as exc:
            raise NotFoundError(f"no such file: {path}") from exc

    def exists(self, path: str) -> bool:
        return path in self._files

    def unlink(self, path: str) -> None:
        file = self.lookup(path)
        del self._files[path]
        # Objects exist only on the file's layout OSTs — stripe i lives on
        # ost_for_stripe(i), and stripes beyond stripe_count wrap onto the
        # same OSTs — so only those need their lock/head state dropped.
        layout = file.layout
        for stripe_index in range(layout.stripe_count):
            ost_index = layout.ost_for_stripe(stripe_index)
            self.osts[ost_index].drop_object_state(file.object_id(ost_index))
        self.mds.ns_unregister(path)
        self._invalidate_md(path)

    def rename(self, src: str, dst: str) -> None:
        file = self.lookup(src)
        del self._files[src]
        file.path = dst
        self._files[dst] = file
        self.mds.ns_rename(src, dst)
        self._invalidate_md(src)
        self._invalidate_md(dst)

    def list_paths(self, prefix: str = "") -> list[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    def entries(self, dirpath: str) -> list[str]:
        """Entry names of ``dirpath`` from the MDS namespace (no cost)."""
        return self.mds.entries(dirpath)

    def _invalidate_md(self, path: str) -> None:
        """Broadcast a namespace mutation to every client metadata cache.

        Models the MDS revoking UPDATE/LOOKUP locks: caches may never
        serve an entry staler than the last mutation.  The list is empty
        unless cache-enabled clients exist, keeping this free by default.
        """
        if self._md_caches:
            for cache in self._md_caches:
                cache.invalidate(path)

    def oss_for_ost(self, ost_index: int) -> Oss:
        """Static OST→OSS assignment (round-robin halves, as on Viking)."""
        return self.osses[ost_index % len(self.osses)]

    # -- aggregate stats ---------------------------------------------------

    def total_bytes_written(self) -> int:
        return sum(ost.stats.bytes_written for ost in self.osts)

    def total_bytes_read(self) -> int:
        return sum(ost.stats.bytes_read for ost in self.osts)

    def total_lock_switches(self) -> int:
        return sum(ost.stats.lock_switches for ost in self.osts)

    def total_rpc_retries(self) -> int:
        return sum(stats.rpc_retries for stats in self.client_stats)

    def total_rpc_timeouts(self) -> int:
        return sum(stats.rpc_timeouts for stats in self.client_stats)

    def total_backoff_time(self) -> float:
        return sum(stats.backoff_time for stats in self.client_stats)
