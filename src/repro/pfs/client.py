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
            cluster.engine,
            policy=config.io_policy,
            name=f"client{client_id}",
            compaction_bandwidth=config.io_compaction_bandwidth,
            drr_quantum=config.io_drr_quantum,
        )
        cluster.clients.append(self)
        # Client-side metadata cache (off by default; enabling registers
        # this client for the cluster's invalidation broadcast).
        self._md_cache: Optional[MetadataCache] = None
        if config.md_cache:
            self._md_cache = MetadataCache(
                capacity=config.md_cache_capacity, ttl=config.md_cache_ttl
            )
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

    def set_io_policy(
        self,
        policy: str,
        compaction_bandwidth: "Optional[float]" = None,
        drr_quantum: Optional[int] = None,
    ) -> None:
        """Override the admission policy for this client (idle only)."""
        kwargs = {}
        if drr_quantum is not None:
            kwargs["drr_quantum"] = drr_quantum
        self.scheduler.set_policy(
            policy, compaction_bandwidth=compaction_bandwidth, **kwargs
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
            "meta", 0, lambda: self._mds_service_lw(op, path),
            priority=Priority.METADATA,
        )
        self.stats.mds_ops += 1

    def _mds_service_lw(self, op: str, path: Optional[str]):
        """MDS service with the retry/timeout/backoff degraded path.

        The metadata twin of :meth:`_faulty_transfer_lw`: a down shard
        costs the client its RPC timeout, then retries with exponential
        backoff until the shard recovers or the budget is spent.  With no
        injector installed this is a single delegation — the healthy fast
        path stays one ``is None`` check.
        """
        if self.cluster.fault_injector is None:
            yield from self.cluster.mds.perform_lw(op, path)
            return
        injector = self.cluster.fault_injector
        shard = self.cluster.mds.shard_for(path if path is not None else "")
        attempts = 0
        while True:
            try:
                injector.advance(sim.now())
                if not shard.up:
                    # The request vanishes into a dead server: burn the
                    # timeout (same contract as a dead OSS).
                    yield self._rpc_timeout
                    self.stats.rpc_timeouts += 1
                    raise RpcTimeoutError(
                        f"client{self.client_id}: {op} rpc to "
                        f"mds{shard.index} timed out after "
                        f"{self._rpc_timeout}s"
                    )
                yield from shard.perform_lw(op)
                return
            except (MdsUnavailableError, RpcTimeoutError) as exc:
                attempts += 1
                if attempts > self._max_retries:
                    self.stats.rpc_failures += 1
                    raise RetryExhaustedError(
                        f"client{self.client_id}: {op} rpc to "
                        f"mds{shard.index} failed after {attempts} "
                        f"attempts: {exc}",
                        attempts=attempts,
                        last_error=exc,
                    ) from exc
                self.stats.rpc_retries += 1
                tracer = _trace.TRACER
                if tracer is not None:
                    tracer.instant(
                        "pfs", "mds_retry", client=self.client_id,
                        shard=shard.index, attempt=attempts, op=op,
                        error=type(exc).__name__,
                    )
                yield from self._backoff_lw(attempts)

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
            if isinstance(data, (bytes, bytearray, memoryview)):
                length = len(data)
                file.store(offset, bytes(data))
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

    def write_lw(self, file: LustreFile, offset: int, data: "bytes | int"):
        """Write ``data`` (bytes, or a length for data-less mode).

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
                    self._write_behind_lw,
                    rpc,
                    name=f"client{self.client_id}.wb",
                )
                self._outstanding.append(proc)
                self.stats.write_rpcs += 1
                if tracer is not None:
                    tracer.gauge(
                        "pfs",
                        f"client{self.client_id}.rpcs_in_flight",
                        len(self._outstanding),
                    )

    def _write_behind_lw(self, rpc: Rpc):
        """One background write RPC (OSS pipe → OST disk), light process."""
        with _trace.probe(
            "pfs", "write_rpc", "pfs.rpc.write", client=self.client_id,
            ost=rpc.ost_index, nbytes=rpc.length,
        ) as span:
            yield from self._jitter_delay_lw()
            if self.cluster.fault_injector is None:
                # Healthy fast path: identical to a cluster without the fault
                # subsystem (one attribute check of overhead).
                yield from self.cluster.oss_for_ost(
                    rpc.ost_index
                ).transfer_lw(rpc.length)
                yield from self.cluster.osts[rpc.ost_index].serve_lw(
                    self.client_id, rpc.object_id, rpc.object_offset,
                    rpc.length, is_write=True,
                )
                return
            try:
                yield from self._faulty_transfer_lw(rpc, is_write=True)
            except StorageIOError as exc:
                # Write-behind semantics: the failure surfaces at fsync/close
                # (like EIO reported from the page cache), not here — raising
                # out of a background process would tear down the engine.
                self._write_errors.append(exc)
                span.set(failed=True)

    # -- retry/timeout/backoff (the degraded path) ------------------------

    def _faulty_transfer_lw(self, rpc: Rpc, is_write: bool):
        """One RPC with retry, timeout, and exponential backoff + jitter.

        Transient faults (:class:`OstUnavailableError`,
        :class:`RpcTimeoutError`) are retried up to the configured budget
        with exponentially growing, jittered backoff; exhaustion raises
        :class:`RetryExhaustedError` carrying the last underlying error.
        """
        injector = self.cluster.fault_injector
        attempts = 0
        while True:
            try:
                yield from self._attempt_transfer_lw(injector, rpc, is_write)
                return
            except (OstUnavailableError, RpcTimeoutError) as exc:
                attempts += 1
                if attempts > self._max_retries:
                    self.stats.rpc_failures += 1
                    raise RetryExhaustedError(
                        f"client{self.client_id}: rpc to ost{rpc.ost_index} "
                        f"failed after {attempts} attempts: {exc}",
                        attempts=attempts,
                        last_error=exc,
                    ) from exc
                self.stats.rpc_retries += 1
                tracer = _trace.TRACER
                if tracer is not None:
                    tracer.instant(
                        "pfs", "rpc_retry", client=self.client_id,
                        ost=rpc.ost_index, attempt=attempts,
                        error=type(exc).__name__,
                    )
                yield from self._backoff_lw(attempts)

    def _attempt_transfer_lw(self, injector, rpc: Rpc, is_write: bool):
        drop, extra = injector.before_rpc(
            sim.now(), rpc.ost_index, self.client_id, is_write
        )
        if extra > 0.0:
            yield extra
        oss = self.cluster.oss_for_ost(rpc.ost_index)
        if drop or not oss.up:
            # The request (or its reply) vanished: wait out the timeout.
            yield self._rpc_timeout
            self.stats.rpc_timeouts += 1
            raise RpcTimeoutError(
                f"client{self.client_id}: rpc to ost{rpc.ost_index} "
                f"timed out after {self._rpc_timeout}s",
                ost_index=rpc.ost_index,
            )
        ost = self.cluster.osts[rpc.ost_index]
        if is_write:
            yield from oss.transfer_lw(rpc.length)
            yield from ost.serve_lw(
                self.client_id, rpc.object_id, rpc.object_offset, rpc.length,
                is_write=True,
            )
        else:
            yield from ost.serve_lw(
                self.client_id, rpc.object_id, rpc.object_offset, rpc.length,
                is_write=False,
            )
            yield from oss.transfer_lw(rpc.length)

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
        rpcs = self._coalesce_ranges(file, [(offset, nbytes)])
        return (
            yield from self.scheduler.submit_lw(
                "read", nbytes,
                lambda: self._read_impl_lw(file, offset, nbytes, rpcs),
                ost=rpcs[0].ost_index,
            )
        )

    read = sim.blocking_form(read_lw)

    def _read_impl_lw(
        self, file: LustreFile, offset: int, nbytes: int, rpcs: list[Rpc]
    ):
        engine = self.cluster.engine
        # OST + OSS stages proceed in parallel across targets…
        procs = [
            engine.spawn_light(
                self._read_remote_lw, rpc, name=f"client{self.client_id}.rd"
            )
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
        return file.load(offset, nbytes)

    def _read_remote_lw(self, rpc: Rpc):
        with _trace.probe(
            "pfs", "read_rpc", "pfs.rpc.read", client=self.client_id,
            ost=rpc.ost_index, nbytes=rpc.length,
        ) as span:
            yield from self._jitter_delay_lw()
            if self.cluster.fault_injector is None:
                yield from self.cluster.osts[rpc.ost_index].serve_lw(
                    self.client_id, rpc.object_id, rpc.object_offset,
                    rpc.length, is_write=False,
                )
                yield from self.cluster.oss_for_ost(
                    rpc.ost_index
                ).transfer_lw(rpc.length)
                return
            try:
                yield from self._faulty_transfer_lw(rpc, is_write=False)
            except StorageIOError as exc:
                # Reads are synchronous: the error re-raises in read() after
                # every parallel RPC has settled.
                self._read_errors.append(exc)
                span.set(failed=True)

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

    @property
    def outstanding_writes(self) -> int:
        return sum(1 for proc in self._outstanding if proc.alive)
