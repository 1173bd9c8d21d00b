"""The LSMIO Manager (Table 2): local store + MPI integration + K/V API.

"The LSMIO manager manages the local store as well as the MPI
integration.  It also provides the functionality for the external K/V
interface with needs such as an append function, enabling MPI options,
multiple put methods for different data types, performance counters, and
an optional factory method" (§3.1.4).

Collective I/O (§3.1.3 / §5.1 future work, implemented here): when
constructed with ``collective=True`` and a communicator, ranks are grouped
(``collective_group_size`` consecutive ranks per group) and only each
group's first rank owns a store; other members forward their operations as
MPI messages, so "a single LSM-tree store [is] created for all or a group
of nodes participating in checkpointing".
"""

from __future__ import annotations

import threading
from typing import Any, Iterator, Optional

from repro.errors import (
    ClosedError,
    DegradedWriteError,
    InvalidArgumentError,
    OstUnavailableError,
    RetryExhaustedError,
    RpcTimeoutError,
)
from repro.lsm.batch import WriteBatch
from repro.lsm.env import Env
from repro.core.checkpoint import DegradedWriteReport
from repro.core.counters import PerfCounters
from repro.core.options import LsmioOptions
from repro.core.serialization import deserialize_value, serialize_value
from repro.core.store import LsmioStore
from repro.io import Priority
from repro.trace import runtime as _trace
from repro.trace.runtime import ambient_clock

#: storage faults that a barrier converts into a DegradedWriteError
_BARRIER_FAULTS = (OstUnavailableError, RetryExhaustedError, RpcTimeoutError)

_OPS_CHANNEL = "lsmio.ops"


def _reply_channel(rank: int) -> str:
    return f"lsmio.reply.{rank}"


def _as_key(key: bytes | str) -> bytes:
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, (bytes, bytearray)):
        return bytes(key)
    raise InvalidArgumentError(f"keys must be bytes or str, got {type(key)}")


def _as_value(value: bytes | str) -> bytes:
    if isinstance(value, str):
        return value.encode("utf-8")
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value)
    raise InvalidArgumentError(
        f"raw values must be bytes or str, got {type(value)}; "
        "use put_typed() for numbers and arrays"
    )


class LsmioManager:
    """The external K/V interface of LSMIO.

    Writes are accumulated: a rank's puts, appends and deletes, plus
    those its collective group forwards to it, collect in one pending
    ``WriteBatch`` that reaches the engine as a single ``DB.write`` at
    the barrier, before a read, on a sync write or at the write-buffer
    threshold.  This is the stack's only group commit.
    """

    _registry: dict[str, "LsmioManager"] = {}
    _registry_lock = threading.Lock()

    def __init__(
        self,
        path: str,
        options: Optional[LsmioOptions] = None,
        env: Optional[Env] = None,
        comm=None,
        collective: bool = False,
        collective_group_size: Optional[int] = None,
    ):
        self.path = path
        self.options = options or LsmioOptions()
        self.comm = comm
        self.counters = PerfCounters()
        self._closed = False
        self._env = env
        #: DegradedWriteReport of the most recent write_barrier (None
        #: before the first barrier); clean reports are recorded too.
        self.last_barrier_report: Optional[DegradedWriteReport] = None

        self.collective = bool(collective and comm is not None and comm.size > 1)
        if collective and comm is None:
            raise InvalidArgumentError("collective mode requires a communicator")
        if self.collective:
            group = collective_group_size or comm.size
            if group < 1:
                raise InvalidArgumentError("collective_group_size must be >= 1")
            self.aggregator_rank = (comm.rank // group) * group
            self._group_ranks = [
                r
                for r in range(self.aggregator_rank, self.aggregator_rank + group)
                if r < comm.size
            ]
        else:
            self.aggregator_rank = comm.rank if comm is not None else 0
            self._group_ranks = [self.aggregator_rank]

        self.is_aggregator = (
            not self.collective or comm.rank == self.aggregator_rank
        )
        metrics = _trace.METRICS
        if metrics is not None:
            namespace = f"core.manager.{path}"
            if comm is not None:
                namespace = f"{namespace}.rank{comm.rank}"
            metrics.register(namespace, self.counters)
        self.store: Optional[LsmioStore] = None
        self._server = None
        # Write accumulation (group commit at manager level): local
        # puts/appends/deletes collect in one WriteBatch, flushed as a
        # single engine write at the barrier / before reads / on sync /
        # at the write-buffer threshold.
        self._pending: Optional[WriteBatch] = None
        self._pending_limit = self.options.write_buffer_size
        self._client_coalesced_seen = 0
        #: the node's burst-buffer tier (None without one configured)
        self.burst_buffer = None
        if self.is_aggregator and env is not None:
            self._attach_burst_buffer(env)
        if self.is_aggregator:
            self.store = LsmioStore(path, options=self.options, env=self._env)
            if self.collective:
                self._start_server()

    def _attach_burst_buffer(self, env: Env) -> None:
        """Interpose the burst-buffer tier between the store and ``env``.

        The tier's device is kept on the options' burst-buffer config,
        so a restart that reuses the same options object reopens the
        same (possibly dirty) device and runs journal recovery.  The
        config's ``drain_bandwidth`` caps DRAIN-class bytes/s on the
        backing client's scheduler (local-filesystem envs have none).
        """
        config = self.options.burst_buffer
        if config is None:
            return
        from repro import sim
        from repro.bb import BurstBufferDevice, BurstBufferTier

        cluster = getattr(env, "cluster", None)
        engine = getattr(cluster, "engine", None)
        if engine is None:
            engine = sim.current_engine()
        if config.device is None:
            config.device = BurstBufferDevice(
                engine, config, name=f"bb.{self.path}"
            )
        injector = getattr(cluster, "fault_injector", None)
        schedule = injector.schedule if injector is not None else None
        self.burst_buffer = BurstBufferTier(
            env,
            device=config.device,
            config=config,
            schedule=schedule,
            name=self.path,
            engine=engine,
        )
        self._env = self.burst_buffer.env
        client = getattr(env, "client", None)
        if client is not None and config.drain_bandwidth is not None:
            client.scheduler.set_class_bandwidth(
                Priority.DRAIN, config.drain_bandwidth
            )

    # ------------------------------------------------------------------
    # K/V API (Table 2)
    # ------------------------------------------------------------------

    def put(self, key: bytes | str, value: bytes | str, sync: Optional[bool] = None) -> None:
        """Write the value locally or remotely (collective I/O)."""
        key, value = _as_key(key), _as_value(value)
        # Counter invariant: bytes accounted == bytes the store writes,
        # i.e. the UTF-8-encoded length, never len() of a str argument.
        nbytes = len(value)
        start = ambient_clock()
        with _trace.probe("core", "put", "core.put", nbytes=nbytes):
            self._forward_or_apply(("put", key, value, sync))
        self.counters.record("put", nbytes, ambient_clock() - start)

    def append(self, key: bytes | str, value: bytes | str, sync: Optional[bool] = None) -> None:
        """Append to the existing value, locally or remotely."""
        key, value = _as_key(key), _as_value(value)
        nbytes = len(value)  # encoded length — see put()
        start = ambient_clock()
        with _trace.probe("core", "append", nbytes=nbytes):
            self._forward_or_apply(("append", key, value, sync))
        self.counters.record("append", nbytes, ambient_clock() - start)

    def delete(self, key: bytes | str) -> None:
        """Delete the value, locally or remotely."""
        key = _as_key(key)
        self._forward_or_apply(("delete", key, b"", None))
        self.counters.record("delete")

    def get(self, key: bytes | str) -> bytes:
        """Get the value for the key.  Always synchronous (Table 2)."""
        if type(key) is not bytes:
            key = _as_key(key)
        start = ambient_clock()
        with _trace.probe("core", "get") as span:
            if self._closed:
                raise ClosedError("manager is closed")
            if self.is_aggregator:
                if self._pending is not None:
                    self._flush_pending()
                value = self.store.get(key)
            else:
                self.comm.channel_send(
                    _OPS_CHANNEL, ("get", self.comm.rank, key),
                    self.aggregator_rank,
                )
                status, payload = self.comm.channel_recv(
                    _reply_channel(self.comm.rank)
                )
                if status == "err":
                    raise payload
                value = payload
            nbytes = len(value)
            span.set(nbytes=nbytes)
        self.counters.record("get", nbytes, ambient_clock() - start)
        return value

    def write_barrier(self, sync: bool = True) -> None:
        """Flush buffered writes locally or remotely (collective I/O).

        On a faulty cluster the barrier degrades gracefully: transient
        OST/RPC faults are absorbed by the client retry path and merely
        recorded, while a terminal storage fault (retry budget exhausted,
        OST still down) raises :class:`~repro.errors.DegradedWriteError`
        carrying a :class:`~repro.core.checkpoint.DegradedWriteReport`.
        Either way ``last_barrier_report`` describes what happened and the
        fault counters in :attr:`counters` are updated.  With no fault
        injector installed this is the original fast path plus one
        attribute probe.
        """
        with _trace.probe("core", "barrier", "core.barrier", sync=sync):
            start = ambient_clock()
            self._check_open()
            injector = self._fault_injector()
            if injector is not None:
                injector.maybe_crash_rank(
                    start, self.comm.rank if self.comm is not None else 0
                )
            before = self._fault_snapshot()
            fault = None
            try:
                if self.is_aggregator:
                    self._flush_pending()
                    self.store.write_barrier(sync=sync)
                else:
                    self.comm.channel_send(
                        _OPS_CHANNEL,
                        ("barrier", self.comm.rank, sync),
                        self.aggregator_rank,
                    )
                    status, payload = self.comm.channel_recv(
                        _reply_channel(self.comm.rank)
                    )
                    if status == "err":
                        raise payload
            except _BARRIER_FAULTS as exc:
                fault = exc
            self._sync_coalesced_bytes()
            report = self._barrier_report(
                before,
                completed=fault is None,
                error=None if fault is None else str(fault),
            )
            self.last_barrier_report = report
            if report.degraded:
                self.counters.record_faults(
                    report.retries,
                    report.timeouts,
                    report.backoff_time,
                    degraded=True,
                    failed=fault is not None,
                )
            self.counters.record("barrier", elapsed=ambient_clock() - start)
            if fault is not None:
                raise DegradedWriteError(report.summary(), report=report) from fault

    def drain_barrier(self):
        """Wait for the burst-buffer drain backlog to reach the PFS.

        Returns the tier's
        :class:`~repro.bb.tier.BurstBufferDegradedReport` (None without
        a configured tier).  Parked segments — drain retry budget
        exhausted against a degraded OST — do not block the barrier;
        they surface in the report with ``completed=False``.
        """
        if self.burst_buffer is None:
            return None
        with _trace.probe("core", "drain_barrier"):
            return self.burst_buffer.drain_barrier()

    # -- fault plumbing (all no-ops on a healthy/local setup) ----------

    def _fault_client(self):
        """The LustreClient under this manager's env, if there is one."""
        return getattr(self._env, "client", None)

    def _fault_injector(self):
        client = self._fault_client()
        if client is None:
            return None
        return getattr(client.cluster, "fault_injector", None)

    def _fault_snapshot(self):
        """Pre-barrier client fault counters, for delta reporting."""
        client = self._fault_client()
        if client is None:
            return None
        stats = client.stats
        return (client, stats.rpc_retries, stats.rpc_timeouts, stats.backoff_time)

    def _barrier_report(
        self, before, completed: bool, error: Optional[str] = None
    ) -> DegradedWriteReport:
        if before is None:
            return DegradedWriteReport(completed=completed, error=error)
        client, retries0, timeouts0, backoff0 = before
        stats = client.stats
        retries = stats.rpc_retries - retries0
        timeouts = stats.rpc_timeouts - timeouts0
        backoff = stats.backoff_time - backoff0
        failed_osts: tuple[int, ...] = ()
        # Down OSTs are only *this* barrier's problem when it actually hit
        # the fault path — a clean barrier over files striped elsewhere
        # stays clean.
        if not completed or retries or timeouts:
            injector = getattr(client.cluster, "fault_injector", None)
            if injector is not None:
                failed_osts = injector.down_osts
        return DegradedWriteReport(
            completed=completed,
            retries=retries,
            timeouts=timeouts,
            backoff_time=backoff,
            failed_osts=failed_osts,
            error=error,
        )

    # -- typed puts (Table 2: "multiple put methods for different data types")

    def put_typed(self, key: bytes | str, value: Any, sync: Optional[bool] = None) -> None:
        """Write a typed value (str, int, float, numpy array, bytes)."""
        key = _as_key(key)
        payload = serialize_value(value)
        start = ambient_clock()
        self._forward_or_apply(("put", key, payload, sync))
        self.counters.record("put", len(payload), ambient_clock() - start)

    def get_typed(self, key: bytes | str) -> Any:
        """Read back a value written by :meth:`put_typed`."""
        return deserialize_value(self.get(key))

    def get_batch(self, keys) -> dict:
        """Batch point lookups: {key: value-or-None}.

        The §5.1 future-work read path: probing in sorted order turns the
        block accesses sequential, letting client readahead do the work a
        point-lookup stream wastes.
        """
        keys = [_as_key(k) for k in keys]
        start = ambient_clock()
        self._check_open()
        if self.is_aggregator:
            self._flush_pending()
            out = self.store.multi_get(keys)
        else:
            self.comm.channel_send(
                _OPS_CHANNEL, ("mget", self.comm.rank, keys),
                self.aggregator_rank,
            )
            status, payload = self.comm.channel_recv(
                _reply_channel(self.comm.rank)
            )
            if status == "err":
                raise payload
            out = payload
        nbytes = sum(len(v) for v in out.values() if v is not None)
        self.counters.record("get", nbytes, ambient_clock() - start)
        return out

    def read_prefix(self, prefix: bytes | str) -> list[tuple[bytes, bytes]]:
        """Bulk restore: every (key, value) under ``prefix``, by one scan.

        One sequential sweep over the SSTables (§5.1: "sequential or
        batch read of the variables from the LSM-Tree into memory
        instead of random reading of each key").
        """
        prefix = _as_key(prefix)
        start = ambient_clock()
        self._check_open()
        if not self.is_aggregator:
            raise InvalidArgumentError(
                "read_prefix is served by the aggregator rank in "
                "collective mode"
            )
        self._flush_pending()
        stop = prefix + b"\xff" * 8
        out = [
            (key, value)
            for key, value in self.store.scan(prefix, stop)
            if key.startswith(prefix)
        ]
        nbytes = sum(len(v) for _, v in out)
        self.counters.record("get", nbytes, ambient_clock() - start)
        return out

    def scan(
        self, start: Optional[bytes] = None, stop: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Ordered range scan (aggregator-local; §5.1 batch-read path)."""
        self._check_open()
        if not self.is_aggregator:
            raise InvalidArgumentError(
                "scan is served by the aggregator rank in collective mode"
            )
        self._flush_pending()
        return self.store.scan(start, stop)

    # ------------------------------------------------------------------
    # Collective plumbing
    # ------------------------------------------------------------------

    def _forward_or_apply(self, op: tuple) -> None:
        self._check_open()
        kind, key, value, sync = op
        if not self.is_aggregator:
            tracer = _trace.TRACER
            if tracer is not None:
                tracer.instant(
                    "core", "forward", op=kind, rank=self.comm.rank,
                    aggregator=self.aggregator_rank,
                )
            self.comm.channel_send(_OPS_CHANNEL, op, self.aggregator_rank)
            return
        self._accumulate(kind, key, value, sync)

    def _accumulate(
        self, kind: str, key: bytes, value: bytes, sync: Optional[bool]
    ) -> None:
        """Queue one write into the pending batch; flush when required.

        Each operation is sealed as its own charge segment so the engine
        bills modeled CPU per operation — aggregation changes wall-clock
        cost, not simulated timings.
        """
        pending = self._pending
        if pending is None:
            pending = self._pending = WriteBatch()
        if kind == "put":
            pending.put(key, value)
        elif kind == "append":
            pending.merge(key, value)
        else:
            pending.delete(key)
        pending.add_charge_boundary()
        effective_sync = sync if sync is not None else self.options.sync_writes
        if effective_sync or pending.approximate_size >= self._pending_limit:
            self._flush_pending(sync=effective_sync)

    def _flush_pending(self, sync: bool = False) -> None:
        """Apply the pending batch as one engine write (group commit)."""
        pending = self._pending
        if pending is None or not len(pending):
            return
        self._pending = None
        if len(pending) > 1:
            self.counters.batches_merged += len(pending) - 1
        with _trace.probe(
            "core", "flush_pending", ops=len(pending),
            nbytes=pending.payload_bytes, sync=sync,
        ):
            self.store.write_batch(pending, sync=sync)

    def _sync_coalesced_bytes(self) -> None:
        """Fold the PFS client's coalescing into ``bytes_coalesced``.

        Counts extent bytes the client merged into neighbouring RPCs,
        delta-tracked so repeated barriers don't double-count.
        """
        client = self._fault_client()
        if client is not None:
            coalesced = getattr(client.stats, "bytes_coalesced", 0)
            if coalesced > self._client_coalesced_seen:
                self.counters.bytes_coalesced += (
                    coalesced - self._client_coalesced_seen
                )
                self._client_coalesced_seen = coalesced

    def _start_server(self) -> None:
        """Spawn the aggregator's service loop as a daemon sim process."""
        from repro import sim

        engine = sim.current_engine()
        members = [r for r in self._group_ranks if r != self.comm.rank]
        self._server = engine.spawn(
            self._serve, set(members), name=f"lsmio-agg{self.comm.rank}",
            daemon=True,
        )

    def _serve(self, members: set) -> None:
        """Handle forwarded operations until every member disconnects."""
        from repro.errors import ReproError

        live = set(members)
        while live:
            msg = self.comm.channel_recv(_OPS_CHANNEL)
            kind = msg[0]
            if kind in ("put", "append", "delete"):
                # Forwarded writes join the same accumulation batch as
                # the aggregator's own, so one group commit covers the
                # whole collective group.
                _, key, value, sync = msg
                self._accumulate(kind, key, value, sync)
            elif kind == "get":
                _, src, key = msg
                try:
                    self._flush_pending()
                    reply = ("ok", self.store.get(key))
                except ReproError as exc:
                    reply = ("err", exc)
                self.comm.channel_send(_reply_channel(src), reply, src)
            elif kind == "mget":
                _, src, keys = msg
                try:
                    self._flush_pending()
                    reply = ("ok", self.store.multi_get(keys))
                except ReproError as exc:
                    reply = ("err", exc)
                self.comm.channel_send(_reply_channel(src), reply, src)
            elif kind == "barrier":
                _, src, sync = msg
                try:
                    self._flush_pending()
                    self.store.write_barrier(sync=sync)
                    reply = ("ok", None)
                except ReproError as exc:
                    # Ship the storage fault to the requesting member —
                    # dying here would leave it blocked on the reply.
                    reply = ("err", exc)
                self.comm.channel_send(_reply_channel(src), reply, src)
            elif kind == "close":
                _, src = msg
                live.discard(src)
            else:
                raise InvalidArgumentError(f"unknown collective op {kind!r}")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def get_or_create(cls, path: str, **kwargs) -> "LsmioManager":
        """Factory (Table 2): one manager instance per path."""
        with cls._registry_lock:
            manager = cls._registry.get(path)
            if manager is None or manager._closed:
                manager = cls(path, **kwargs)
                cls._registry[path] = manager
            return manager

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError("manager is closed")

    def close(self) -> None:
        """Barrier, disconnect from the aggregator, release the store."""
        if self._closed:
            return
        if self.is_aggregator:
            if self._server is not None:
                # Wait for all members to disconnect before closing.
                from repro import sim

                if self._server.alive:
                    sim.wait(self._server.done)
            self._flush_pending()
            self._sync_coalesced_bytes()
            self.store.close()
            if self.burst_buffer is not None:
                # a closed manager leaves nothing stranded on the node:
                # drain the backlog to the PFS, then stop the worker
                if not self.burst_buffer.crashed:
                    self.burst_buffer.drain_barrier()
                self.burst_buffer.close()
        else:
            self.write_barrier(sync=True)
            self.comm.channel_send(
                _OPS_CHANNEL, ("close", self.comm.rank), self.aggregator_rank
            )
        self._closed = True
        with self._registry_lock:
            if self._registry.get(self.path) is self:
                del self._registry[self.path]

    def __enter__(self) -> "LsmioManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
