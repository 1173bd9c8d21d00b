"""The per-node Lustre client (mount point).

Write path: the byte range is decomposed by the file's stripe layout,
coalesced into per-OST RPCs of at most ``rpc_size`` (the client-side page
cache batches dirty pages per object — this is why one rank's buffered
32 MB flush becomes a handful of large sequential RPCs), and each RPC
flows NIC → OSS pipe → OST disk.  Writes are **write-behind** by default:
``write()`` returns once the bytes have left the node's NIC, and
``fsync``/``close`` wait for the outstanding RPCs — matching a real
client's dirty-page semantics and the paper's measurement protocol (IOR's
close/fsync is inside the timed region).

Read path: synchronous — the caller blocks for OST → OSS → NIC per RPC,
with RPCs to distinct OSTs issued in parallel.

Every operation is defined once, as the generator ``X_lw`` a light
process ``yield from``s; the blocking name thread-backed callers use is
``X = sim.blocking_form(X_lw)``, so both backends run one body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from repro import sim
from repro.errors import (
    InvalidArgumentError,
    MdsUnavailableError,
    NotFoundError,
    OstUnavailableError,
    RetryExhaustedError,
    RpcTimeoutError,
    StorageIOError,
)
from repro.io import IoScheduler, Priority
from repro.pfs.lustre import LustreCluster, LustreFile
from repro.pfs.mdcache import MetadataCache
from repro.trace import runtime as _trace

#: What a write segment carries when it is not a data-less length.
_PAYLOADS = (bytes, bytearray, memoryview, list)

#: Failures the retry loop backs off from (anything else propagates).
_RETRYABLE = (OstUnavailableError, MdsUnavailableError, RpcTimeoutError)


class Rpc(NamedTuple):
    """One coalesced per-OST transfer."""

    ost_index: int
    object_id: int
    object_offset: int
    length: int


@dataclass
class ClientStats:
    bytes_written: int = 0
    bytes_read: int = 0
    write_rpcs: int = 0
    read_rpcs: int = 0
    mds_ops: int = 0
    #: fault-path counters (all zero on a healthy cluster); named to
    #: match the ``pfs.*`` metrics namespace and ClusterReport exactly
    rpc_retries: int = 0
    rpc_timeouts: int = 0
    rpc_failures: int = 0
    backoff_time: float = 0.0
    #: osc-layer coalescing (accounting only — merging happens for reads
    #: and writes alike and never changes the simulated RPC schedule):
    #: extents absorbed into a contiguous neighbour, and their bytes.
    extents_coalesced: int = 0
    bytes_coalesced: int = 0


class LustreClient:
    """One compute node's view of the file system."""

    def __init__(self, cluster: LustreCluster, client_id: int):
        self.cluster = cluster
        self.client_id = client_id
        config = cluster.config
        self._nic = sim.Resource(
            cluster.engine, capacity=1, name=f"client{client_id}.nic"
        )
        self._nic_bandwidth = config.client_bandwidth
        self._rpc_latency = config.client_rpc_latency
        self._rpc_size = config.rpc_size
        self._max_rpcs_in_flight = config.max_rpcs_in_flight
        self._jitter = config.client_jitter
        self._rng = np.random.default_rng(
            (config.jitter_seed * 1_000_003 + client_id) & 0xFFFFFFFF
        )
        self._outstanding: list = []  # write-behind LightProcess handles
        # Process names for the per-RPC light processes, built once.
        self._wb_name = f"client{client_id}.wb"
        self._rd_name = f"client{client_id}.rd"
        self._last_arrival = 0.0
        self.stats = ClientStats()
        # Retry/timeout policy (only exercised when faults are injected).
        self._rpc_timeout = config.rpc_timeout
        self._max_retries = config.rpc_max_retries
        self._backoff_base = config.rpc_backoff_base
        self._backoff_max = config.rpc_backoff_max
        self._backoff_jitter = config.rpc_backoff_jitter
        self._retry_rng = np.random.default_rng(
            (config.jitter_seed * 9_176_219 + client_id * 31 + 7) & 0xFFFFFFFF
        )
        self._write_errors: list[BaseException] = []
        self._read_errors: list[BaseException] = []
        # All data/metadata ops are admitted through the per-client
        # scheduler; the default "fifo" policy is an inline pass-through.
        self.scheduler = IoScheduler(
            cluster.engine, policy=config.io_policy, name=f"client{client_id}"
        )
        if config.io_compaction_bandwidth is not None:
            self.scheduler.set_class_bandwidth(
                Priority.COMPACTION, config.io_compaction_bandwidth
            )
        cluster.client_stats.append(self.stats)
        # Client-side metadata cache (off by default; enabling registers
        # this client for the cluster's invalidation broadcast).
        self._md_cache: Optional[MetadataCache] = None
        if config.md_cache:
            self._md_cache = MetadataCache(ttl=config.md_cache_ttl)
            cluster._md_caches.append(self._md_cache)
        metrics = _trace.METRICS
        if metrics is not None:
            metrics.register(f"pfs.client{client_id}", self.stats)
            metrics.register(f"io.sched.client{client_id}", self.scheduler.stats)
            if self._md_cache is not None:
                metrics.register(
                    f"pfs.mdcache.client{client_id}", self._md_cache.stats
                )
        sampler = _trace.SAMPLER
        if sampler is not None:
            sched = self.scheduler
            sampler.register(
                f"io.client{client_id}.queue_depth",
                lambda s=sched: s.queue_depth,
            )
            sampler.register(
                f"io.client{client_id}.compaction_tokens",
                lambda s=sched: (
                    lim._tokens
                    if (lim := s.class_limiter(Priority.COMPACTION))
                    is not None
                    else 0.0
                ),
            )

    # ------------------------------------------------------------------
    # Namespace operations (charge the MDS)
    # ------------------------------------------------------------------

    def _mds_op_lw(self, op: str, path: Optional[str] = None):
        """One MDS request, admitted as METADATA class.

        Namespace ops always classify as METADATA regardless of the
        ambient :func:`io_priority` context: they are tiny, the caller
        blocks on them, and real MDS traffic rides a separate portal
        from bulk data.  ``path`` selects the DNE shard; ``None`` routes
        to the root shard (format-model bookkeeping ops).
        """
        yield from self.scheduler.submit_lw(
            "meta", 0, lambda: self._mds_call(op, path),
            priority=Priority.METADATA,
        )
        self.stats.mds_ops += 1

    def _mds_call(self, op: str, path: Optional[str]):
        """The service generator of one MDS op on the shard owning ``path``.

        With no injector installed it is the shard's own ``perform_lw``;
        otherwise the op runs through :meth:`_retry_lw`.
        """
        shard = self.cluster.mds.shard_for(path if path is not None else "")
        injector = self.cluster.fault_injector
        if injector is None:
            return shard.perform_lw(op)
        return self._retry_lw(
            self._mds_attempt_lw, (injector, shard, op),
            f"{op} rpc to mds{shard.index}", "mds_retry",
            shard=shard.index, op=op,
        )

    @staticmethod
    def _mds_attempt_lw(injector, shard, op: str):
        injector.advance(sim.now())
        if not shard.up:
            return False
        yield from shard.perform_lw(op)
        return True

    # -- metadata-cache fast path (zero simulated cost on a hit) ----------

    def _md_cached(self, path: str):
        """Probe the cache: the file on a hit, ``None`` on a miss.

        A live negative entry raises :class:`NotFoundError` straight from
        the cache — the saved RPC is the point.
        """
        if self._md_cache is None:
            return None
        verdict = self._md_cache.lookup(path)
        if verdict is None:
            return None
        if not verdict:
            raise NotFoundError(f"no such file: {path}")
        return self.cluster.lookup(path)

    def _md_fill(self, path: str) -> LustreFile:
        """Resolve ``path`` after an MDS round-trip, remembering the verdict."""
        try:
            file = self.cluster.lookup(path)
        except NotFoundError:
            if self._md_cache is not None:
                self._md_cache.insert(path, exists=False)
            raise
        if self._md_cache is not None:
            self._md_cache.insert(path, exists=True)
        return file

    def create_lw(
        self,
        path: str,
        stripe_count: Optional[int] = None,
        stripe_size: Optional[int | str] = None,
        store_data: Optional[bool] = None,
    ):
        """Create ``path`` (one MDS op); returns the :class:`LustreFile`."""
        yield from self._mds_op_lw("create", path)
        file = self.cluster.create(
            path,
            stripe_count=stripe_count,
            stripe_size=stripe_size,
            store_data=store_data,
        )
        if self._md_cache is not None:
            self._md_cache.insert(path, exists=True)
        return file

    create = sim.blocking_form(create_lw)

    def open_lw(self, path: str):
        """Open ``path``: one MDS op unless the metadata cache answers."""
        cached = self._md_cached(path)
        if cached is not None:
            return cached
        yield from self._mds_op_lw("open", path)
        return self._md_fill(path)

    open = sim.blocking_form(open_lw)

    def close_lw(self, file: LustreFile):
        """Flush write-behind data, then release the handle at the MDS."""
        yield from self.fsync_lw(file)
        yield from self._mds_op_lw("close", file.path)

    close = sim.blocking_form(close_lw)

    def stat_lw(self, path: str):
        """Stat ``path``: one MDS op unless the metadata cache answers."""
        cached = self._md_cached(path)
        if cached is not None:
            return cached
        yield from self._mds_op_lw("stat", path)
        return self._md_fill(path)

    stat = sim.blocking_form(stat_lw)

    def unlink_lw(self, path: str):
        """Remove ``path`` (one MDS op); caches remember it is gone."""
        yield from self._mds_op_lw("unlink", path)
        self.cluster.unlink(path)
        if self._md_cache is not None:
            self._md_cache.insert(path, exists=False)

    unlink = sim.blocking_form(unlink_lw)

    def setattr_lw(self, path: str):
        """Attribute mutation (chmod/utimes): one MDS op + lock revocation.

        Cached verdicts about ``path`` become stale everywhere, so the
        cluster broadcasts an invalidation — the same coherence rule as
        create/unlink.
        """
        yield from self._mds_op_lw("setattr", path)
        file = self.cluster.lookup(path)
        self.cluster._invalidate_md(path)
        return file

    setattr = sim.blocking_form(setattr_lw)

    def readdir_page_lw(
        self, dirpath: str, start: int = 0, batch_size: int = 64
    ):
        """One paged readdir RPC: entries ``[start, start+batch_size)``.

        Returns ``(names, next_start)``; ``next_start`` is ``None`` on
        the last page.  Each page is one "readdir" MDS op on the shard
        owning ``dirpath`` (``dirpath + "/"`` routes there: entries
        co-locate with their directory).
        """
        if batch_size < 1:
            raise InvalidArgumentError("batch_size must be >= 1")
        yield from self._mds_op_lw("readdir", dirpath + "/")
        names = self.cluster.mds.entries(dirpath)
        end = start + batch_size
        return names[start:end], end if end < len(names) else None

    readdir_page = sim.blocking_form(readdir_page_lw)

    def readdir_lw(self, dirpath: str, batch_size: int = 64):
        """Full directory listing via paged readdir RPCs (sorted names)."""
        names: list[str] = []
        start: Optional[int] = 0
        while start is not None:
            page, start = yield from self.readdir_page_lw(
                dirpath, start, batch_size
            )
            names.extend(page)
        return names

    readdir = sim.blocking_form(readdir_lw)

    def metadata_op_lw(self, op: str):
        """Charge an arbitrary MDS operation (used by format models)."""
        yield from self._mds_op_lw(op)

    metadata_op = sim.blocking_form(metadata_op_lw)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def _coalesce_ranges(
        self, file: LustreFile, ranges_in: list[tuple[int, int]]
    ) -> list[Rpc]:
        """Stripe-decompose file ranges, then batch per-object extents.

        Mirrors the osc layer: dirty extents that land contiguously on the
        same object merge — even across ``write`` call boundaries within
        one vectored submission — then split at ``rpc_size``.  This is
        what turns an aggregator's every-Nth-stripe file domain into one
        large sequential RPC per object.
        """
        per_ost: dict[int, list[list[int]]] = {}
        for file_offset, length in ranges_in:
            for extent in file.layout.extents(file_offset, length):
                ranges = per_ost.setdefault(extent.ost_index, [])
                if (
                    ranges
                    and ranges[-1][0] + ranges[-1][1] == extent.object_offset
                ):
                    ranges[-1][1] += extent.length
                    self.stats.extents_coalesced += 1
                    self.stats.bytes_coalesced += extent.length
                else:
                    ranges.append([extent.object_offset, extent.length])
        rpcs: list[Rpc] = []
        for ost_index, ranges in per_ost.items():
            object_id = file.object_id(ost_index)
            for obj_offset, total in ranges:
                position = obj_offset
                remaining = total
                while remaining > 0:
                    chunk = min(remaining, self._rpc_size)
                    rpcs.append(Rpc(ost_index, object_id, position, chunk))
                    position += chunk
                    remaining -= chunk
        return rpcs

    def _write_segments_lw(
        self, file: LustreFile, segments: list[tuple[int, "bytes | int"]]
    ):
        """Dirty every segment, then issue them as one coalesced set."""
        ranges: list[tuple[int, int]] = []
        total = 0
        for offset, data in segments:
            if isinstance(data, _PAYLOADS):
                if type(data) is not list:  # a caller's buffer: snapshot it
                    data = [bytes(data)]
                length = sum(map(len, data))
                file.store(offset, data)
            else:
                length = int(data)
                if length < 0:
                    raise InvalidArgumentError("negative write length")
                file.extend_size(offset, length)
            if length:
                ranges.append((offset, length))
                total += length
        if not ranges:
            return
        rpcs = self._coalesce_ranges(file, ranges)
        yield from self.scheduler.submit_lw(
            "write", total, lambda: self._issue_write_rpcs_lw(rpcs),
            ost=rpcs[0].ost_index,
        )
        self.stats.bytes_written += total

    def write_lw(
        self, file: LustreFile, offset: int, data: "bytes | list | int"
    ):
        """Write ``data`` (bytes, or a length for data-less mode).

        ``data`` may also be a list of buffers that follow each other
        from ``offset``: one range, as if joined, whose buffers the file
        keeps by reference, so the caller must not change them afterwards.
        A single ``bytearray`` or ``memoryview`` is copied.

        Returns when the bytes have left this node's NIC; the OSS/OST
        stages complete in the background (write-behind).  Call
        :meth:`fsync` or :meth:`close` for durability, as IOR does.
        """
        yield from self._write_segments_lw(file, [(offset, data)])

    write = sim.blocking_form(write_lw)

    def writev_lw(
        self, file: LustreFile, segments: list[tuple[int, "bytes | int"]]
    ):
        """Vectored write: all segments coalesce as one dirty-page set.

        The collective-I/O aggregators use this so an every-Nth-stripe
        file domain still reaches each OST as large sequential RPCs.
        """
        yield from self._write_segments_lw(file, segments)

    writev = sim.blocking_form(writev_lw)

    def _issue_write_rpcs_lw(self, rpcs: list[Rpc]):
        """NIC admission + write-behind spawn for one write submission."""
        engine = self.cluster.engine
        tracer = _trace.TRACER
        with _trace.probe(
            "pfs", "rpc_issue", client=self.client_id, rpcs=len(rpcs),
            nbytes=sum([r.length for r in rpcs]),
        ):
            for rpc in rpcs:
                # osc.max_rpcs_in_flight: block until a slot frees before
                # issuing another RPC (real clients bound dirty RPCs too).
                self._outstanding = [p for p in self._outstanding if p.alive]
                while len(self._outstanding) >= self._max_rpcs_in_flight:
                    yield self._outstanding[0].done
                    self._outstanding = [
                        p for p in self._outstanding if p.alive
                    ]
                # NIC stage: serialize this node's outbound traffic, in order.
                yield from self._nic.acquire_lw()
                try:
                    yield (
                        self._rpc_latency + rpc.length / self._nic_bandwidth
                    )
                finally:
                    self._nic.release()
                proc = engine.spawn_light(
                    self._rpc_lw, rpc, True, name=self._wb_name
                )
                self._outstanding.append(proc)
                self.stats.write_rpcs += 1
                if tracer is not None:
                    tracer.gauge(
                        "pfs",
                        f"client{self.client_id}.rpcs_in_flight",
                        len(self._outstanding),
                    )

    def _rpc_lw(self, rpc: Rpc, is_write: bool):
        """One OST RPC, run as its own light process.

        A failure is recorded, not raised: raising out of a background
        process would tear down the engine.  A write error surfaces at
        fsync/close (like EIO reported from the page cache); a read error
        re-raises in read() after every parallel RPC has settled.
        """
        with _trace.probe(
            "pfs", "write_rpc" if is_write else "read_rpc",
            "pfs.rpc.write" if is_write else "pfs.rpc.read",
            client=self.client_id, ost=rpc.ost_index, nbytes=rpc.length,
        ) as span:
            yield from self._jitter_delay_lw()
            injector = self.cluster.fault_injector
            if injector is None:
                for hop in self._HOPS[is_write]:
                    yield from hop(self, rpc, is_write)
                return
            try:
                yield from self._retry_lw(
                    self._rpc_attempt_lw, (injector, rpc, is_write),
                    f"rpc to ost{rpc.ost_index}", "rpc_retry",
                    ost=rpc.ost_index,
                )
            except StorageIOError as exc:
                if is_write:
                    self._write_errors.append(exc)
                else:
                    self._read_errors.append(exc)
                span.set(failed=True)

    def _pipe_hop(self, rpc: Rpc, is_write: bool):
        return self.cluster.oss_for_ost(rpc.ost_index).transfer_lw(rpc.length)

    def _disk_hop(self, rpc: Rpc, is_write: bool):
        return self.cluster.osts[rpc.ost_index].serve_lw(
            self.client_id, rpc.object_id, rpc.object_offset, rpc.length,
            is_write=is_write,
        )

    #: The hops of one RPC in flow order, keyed by ``is_write``: OSS pipe
    #: → OST disk for a write, OST disk → OSS pipe for a read.  Each hop
    #: builds its generator only when its turn comes, so an RPC in flight
    #: holds one server generator, not two.
    _HOPS = {True: (_pipe_hop, _disk_hop), False: (_disk_hop, _pipe_hop)}

    def _rpc_attempt_lw(self, injector, rpc: Rpc, is_write: bool):
        drop, extra = injector.before_rpc(
            sim.now(), rpc.ost_index, self.client_id, is_write
        )
        if extra > 0.0:
            yield extra
        if drop or not self.cluster.oss_for_ost(rpc.ost_index).up:
            return False
        for hop in self._HOPS[is_write]:
            yield from hop(self, rpc, is_write)
        return True

    # -- retry/timeout/backoff (the degraded path) ------------------------

    def _retry_lw(
        self, attempt, args: tuple, what: str, instant: str, **where
    ):
        """Run ``attempt(*args)`` until it gets through or the budget is spent.

        The one degraded path for OST RPCs and MDS ops.  Each attempt
        makes one try and returns ``False`` when the request vanished (a
        dropped RPC, a down OSS or MDS shard): the client burns its
        ``rpc_timeout`` and counts an :class:`RpcTimeoutError`.  A down
        OST instead rejects at once with :class:`OstUnavailableError`.
        Each failure backs off exponentially with seeded jitter; past
        ``rpc_max_retries``, :class:`RetryExhaustedError` escalates with
        the last cause chained.
        """
        attempts = 0
        while True:
            try:
                if (yield from attempt(*args)):
                    return
            except _RETRYABLE as exc:
                error = exc
            else:
                yield self._rpc_timeout
                self.stats.rpc_timeouts += 1
                error = RpcTimeoutError(
                    f"client{self.client_id}: {what} timed out after "
                    f"{self._rpc_timeout}s",
                    ost_index=where.get("ost"),
                )
            attempts += 1
            if attempts > self._max_retries:
                self.stats.rpc_failures += 1
                raise RetryExhaustedError(
                    f"client{self.client_id}: {what} failed after "
                    f"{attempts} attempts: {error}",
                    attempts=attempts, last_error=error,
                ) from error
            self.stats.rpc_retries += 1
            tracer = _trace.TRACER
            if tracer is not None:
                tracer.instant(
                    "pfs", instant, client=self.client_id, **where,
                    attempt=attempts, error=type(error).__name__,
                )
            yield from self._backoff_lw(attempts)

    def _backoff_lw(self, attempts: int):
        delay = min(
            self._backoff_max, self._backoff_base * (2 ** (attempts - 1))
        )
        if self._backoff_jitter > 0.0:
            delay *= 1.0 + self._backoff_jitter * float(self._retry_rng.random())
        self.stats.backoff_time += delay
        _trace.observe("pfs.rpc.backoff", delay)
        with _trace.probe(
            "pfs", "backoff", client=self.client_id, attempt=attempts,
        ):
            yield delay

    def fsync_lw(self, file: Optional[LustreFile] = None):
        """Park until all of this client's outstanding writes are stable.

        Raises the first recorded write-behind failure
        (:class:`RetryExhaustedError` after the retry budget is spent) —
        the POSIX contract that fsync is where async write errors land.
        """
        yield from self.scheduler.submit_lw("fsync", 0, self._fsync_impl_lw)

    fsync = sim.blocking_form(fsync_lw)

    def _fsync_impl_lw(self):
        with _trace.probe(
            "pfs", "fsync", "pfs.fsync", client=self.client_id,
            pending=len([p for p in self._outstanding if p.alive]),
        ):
            pending, self._outstanding = self._outstanding, []
            for proc in pending:
                if proc.alive:
                    yield proc.done
            if self._write_errors:
                errors, self._write_errors = self._write_errors, []
                raise errors[0]

    def read_lw(self, file: LustreFile, offset: int, nbytes: int):
        """Synchronous striped read; returns the logical bytes."""
        nbytes = min(nbytes, max(0, file.size - offset))
        if nbytes <= 0:
            return b""
        yield from self._charge_read(file, offset, nbytes)
        return file.load(offset, nbytes)

    read = sim.blocking_form(read_lw)

    def charge_read_lw(self, file: LustreFile, offset: int, nbytes: int):
        """:meth:`read_lw` without its bytes: the same simulated time,
        RPCs and counters, but nothing is loaded.  For a read whose
        payload would be dropped (a readahead fill, a metadata probe).
        Returns the byte count charged, short at EOF."""
        nbytes = min(nbytes, max(0, file.size - offset))
        if nbytes > 0:
            yield from self._charge_read(file, offset, nbytes)
        return nbytes

    charge_read = sim.blocking_form(charge_read_lw)

    def _charge_read(self, file: LustreFile, offset: int, nbytes: int):
        """The cost of reading ``nbytes`` (> 0, within EOF) at ``offset``,
        as the scheduled generator the caller drives."""
        rpcs = self._coalesce_ranges(file, [(offset, nbytes)])
        return self.scheduler.submit_lw(
            "read", nbytes, lambda: self._read_impl_lw(nbytes, rpcs),
            ost=rpcs[0].ost_index,
        )

    def _read_impl_lw(self, nbytes: int, rpcs: list[Rpc]):
        engine = self.cluster.engine
        # OST + OSS stages proceed in parallel across targets…
        procs = [
            engine.spawn_light(self._rpc_lw, rpc, False, name=self._rd_name)
            for rpc in rpcs
        ]
        for proc in procs:
            yield proc.done
        if self._read_errors:
            errors, self._read_errors = self._read_errors, []
            raise errors[0]
        # …then the NIC serializes delivery into this node.
        for rpc in rpcs:
            yield from self._nic.acquire_lw()
            try:
                yield self._rpc_latency + rpc.length / self._nic_bandwidth
            finally:
                self._nic.release()
        self.stats.read_rpcs += len(rpcs)
        self.stats.bytes_read += nbytes

    def _jitter_delay_lw(self):
        """Fabric/scheduling variance, order-preserving per client.

        Perturbs *cross-client* arrival order at the servers (which is
        what breaks the perfect elevator on shared objects) while keeping
        each client's own RPC stream in issue order, as LNet delivery
        ordering does.
        """
        if self._jitter <= 0:
            return
        now = sim.now()
        arrival = max(
            now + float(self._rng.uniform(0.0, self._jitter)),
            self._last_arrival,
        )
        self._last_arrival = arrival
        if arrival > now:
            yield arrival - now
