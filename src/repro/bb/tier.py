"""The burst-buffer tier: absorb, seal, drain, degrade, recover.

Write path (the happy case)::

    flush/foreground write ──► BurstBufferEnv ──► device (absorb, NVMe bw)
        sync()/close() ──► device fsync ──► journal SEAL (durable)  [segment DIRTY]
    drain worker (async, Priority.DRAIN) ──► copy to base env ──► PFS fsync
        ──► journal COMMIT (durable)                               [segment COMMITTED]

Sealing *is* the durability point the caller observes: ``sync()`` does
not return until the segment bytes and the SEAL record are both on the
device, so the LSM engine's own crash invariants (SSTables synced before
the MANIFEST references them) transfer to the tier unchanged.  The PFS
copy is made durable *before* the COMMIT record is written — the
two-phase drain commit — so recovery can trust a COMMIT unconditionally
and must re-drain (idempotently) anything still DIRTY.

Overflow walks a degradation ladder, never silently losing data:

1. **evict** COMMITTED segments (their PFS copy is durable);
2. **backpressure** — wait up to ``overflow_timeout`` for the drain to
   free space;
3. **degrade** — migrate the writer to write-through against the base
   env and record a :class:`BurstBufferDegradedReport` (mirroring the
   checkpoint path's ``DegradedWriteReport``).

Device failure degrades the same way (write-through), and drain failures
against degraded OSTs retry with exponential backoff on top of the
client's own RPC retry budget; a segment whose retries are exhausted is
*parked* still-DIRTY (re-queued by :meth:`BurstBufferTier.retry_failed`),
not dropped.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass
from typing import Optional

from repro import sim
from repro.bb.device import BurstBufferConfig, BurstBufferDevice
from repro.bb.journal import (
    OP_COMMIT,
    OP_DELETE,
    OP_RENAME,
    OP_SEAL,
    DrainJournal,
    JournalRecord,
)
from repro.errors import NotFoundError, StorageIOError
from repro.fault.schedule import FaultSpec, SimulatedCrash
from repro.io import Priority, io_priority
from repro.lsm.env import (
    Env,
    RandomAccessFile,
    SequentialFile,
    WritableFile,
)
from repro.trace import runtime as _trace
from repro.util.crc import crc32c

#: page-cache-style batching for device appends (matches SimLustreEnv)
_WRITE_BUFFER = 4 << 20

#: polling slice for the overflow backpressure wait (simulated seconds)
_BACKPRESSURE_SLICE = 0.005


class SegmentState(enum.Enum):
    """Lifecycle of a sealed segment."""

    DIRTY = "dirty"          #: durable on the device, PFS copy pending
    COMMITTED = "committed"  #: PFS copy durable too (evictable)


class _Segment:
    __slots__ = ("state", "size", "crc", "seq", "resident")

    def __init__(self, state: SegmentState, size: int, crc: int, seq: int,
                 resident: bool = True):
        self.state = state
        self.size = size
        self.crc = crc
        self.seq = seq
        self.resident = resident


@dataclass
class BurstBufferDegradedReport:
    """What the tier's fault machinery did (mirrors DegradedWriteReport)."""

    #: False when segments are parked undrained (PFS copy still missing)
    completed: bool = True
    #: the tier fell back to write-through for at least one file
    write_through: bool = False
    drain_retries: int = 0
    drain_failures: int = 0
    evictions: int = 0
    overflow_waits: int = 0
    #: simulated seconds writers spent backpressure-waiting for space
    overflow_wait_time: float = 0.0
    #: segments whose drain retry budget was exhausted (still on device)
    failed_segments: tuple[str, ...] = ()
    error: Optional[str] = None

    @property
    def degraded(self) -> bool:
        """True when the tier needed the fault path at all."""
        return (
            not self.completed
            or self.write_through
            or self.drain_retries > 0
            or self.drain_failures > 0
            or self.overflow_waits > 0
        )

    def merged(self, other: "BurstBufferDegradedReport") -> "BurstBufferDegradedReport":
        return BurstBufferDegradedReport(
            completed=self.completed and other.completed,
            write_through=self.write_through or other.write_through,
            drain_retries=self.drain_retries + other.drain_retries,
            drain_failures=self.drain_failures + other.drain_failures,
            evictions=self.evictions + other.evictions,
            overflow_waits=self.overflow_waits + other.overflow_waits,
            overflow_wait_time=self.overflow_wait_time + other.overflow_wait_time,
            failed_segments=tuple(
                sorted(set(self.failed_segments) | set(other.failed_segments))
            ),
            error=self.error or other.error,
        )

    def summary(self) -> str:
        status = "completed" if self.completed else "INCOMPLETE"
        if not self.degraded:
            return f"drain {status}: clean (no faults)"
        parts = [
            f"drain {status} degraded:",
            f"{self.drain_retries} retries,",
            f"{self.drain_failures} failures,",
            f"{self.overflow_waits} overflow waits "
            f"({self.overflow_wait_time * 1e3:.1f}ms)",
        ]
        if self.write_through:
            parts.append("[write-through fallback]")
        if self.failed_segments:
            parts.append(
                "(parked: " + ", ".join(self.failed_segments) + ")"
            )
        if self.error:
            parts.append(f"error: {self.error}")
        return " ".join(parts)


class BurstBufferStats:
    """Counters exported under ``bb.{tier}`` in the metrics registry."""

    def __init__(self) -> None:
        self.bytes_absorbed = 0
        self.bytes_written_through = 0
        self.bytes_drained = 0
        self.segments_sealed = 0
        self.segments_committed = 0
        self.segments_recovered = 0
        self.segments_discarded = 0
        self.drain_retries = 0
        self.drain_failures = 0
        self.drain_time = 0.0
        self.evictions = 0
        self.overflow_waits = 0
        self.overflow_wait_time = 0.0
        self.degraded_writes = 0
        self.resident_bytes = 0
        self.dirty_bytes = 0
        self.max_resident_bytes = 0
        self.max_dirty_bytes = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


class BurstBufferTier:
    """One node's burst buffer: device + journal + async drain worker."""

    def __init__(
        self,
        base_env: Env,
        device: Optional[BurstBufferDevice] = None,
        config: Optional[BurstBufferConfig] = None,
        schedule=None,
        name: str = "bb0",
        engine=None,
    ):
        if device is None:
            if engine is None:
                engine = sim.current_engine()
            device = BurstBufferDevice(engine, config=config, name=f"{name}.dev")
        self.base_env = base_env
        self.device = device
        self.config = config or device.config
        self.name = name
        self.engine = device.engine
        self.stats = BurstBufferStats()
        self.journal = DrainJournal(device)
        self.crashed = False
        #: report accumulated since the last drain_barrier()
        self._report = BurstBufferDegradedReport()
        self.last_degraded_report: Optional[BurstBufferDegradedReport] = None
        self._segments: dict[str, _Segment] = {}
        #: paths with an open writable handle — never evictable, their
        #: blob is still being appended to
        self._open_paths: set[str] = set()
        self._parked: dict[str, int] = {}
        self._seq = itertools.count(1)
        self._queue = sim.Store(self.engine, name=f"{name}.drain")
        self._pending = 0
        self._waiters: list[sim.Event] = []
        self._seal_count = 0
        self._drain_count = 0
        # declarative bb_* faults from the schedule
        self._timed: list[tuple[float, int, FaultSpec]] = []
        self._timed_seq = itertools.count()
        self._seal_crashes: dict[int, FaultSpec] = {}
        self._drain_crashes: dict[int, FaultSpec] = {}
        if schedule is not None:
            for spec in schedule.specs:
                if spec.kind in ("bb_device_fail", "bb_device_recover"):
                    heapq.heappush(
                        self._timed,
                        (spec.at_time, next(self._timed_seq), spec),
                    )
                elif spec.kind == "bb_dirty_crash":
                    if spec.phase == "torn_journal":
                        self._seal_crashes[spec.at_count] = spec
                    else:
                        self._drain_crashes[spec.at_count] = spec
        metrics = _trace.METRICS
        if metrics is not None:
            metrics.register(f"bb.{name}", self.stats)
        sampler = _trace.SAMPLER
        if sampler is not None:
            sampler.register(
                f"bb.{name}.resident_bytes",
                lambda s=self.stats: s.resident_bytes,
            )
            sampler.register(
                f"bb.{name}.dirty_bytes",
                lambda s=self.stats: s.dirty_bytes,
            )
        self._recover()
        self._worker = self.engine.spawn(
            self._drain_worker, name=f"{name}.drain", daemon=True
        )

    # -- env facade --------------------------------------------------------

    @property
    def env(self) -> "BurstBufferEnv":
        return BurstBufferEnv(self)

    # -- declarative faults ------------------------------------------------

    def _advance(self, now: float) -> None:
        while self._timed and self._timed[0][0] <= now:
            _, _, spec = heapq.heappop(self._timed)
            if spec.kind == "bb_device_fail":
                self.device.fail()
                if spec.duration is not None:
                    heapq.heappush(
                        self._timed,
                        (
                            spec.at_time + spec.duration,
                            next(self._timed_seq),
                            FaultSpec(
                                "bb_device_recover",
                                at_time=spec.at_time + spec.duration,
                            ),
                        ),
                    )
            else:
                self.device.recover()

    def _crash_now(self, why: str) -> None:
        """Node death with a dirty buffer: tear tails, kill waiters."""
        self.crashed = True
        self.device.crash()
        exc = SimulatedCrash(why)
        while self._waiters:
            self._waiters.pop().fail(SimulatedCrash(why))
        tracer = _trace.TRACER
        if tracer is not None:
            tracer.instant("bb", "crash", tier=self.name, why=why)
        raise exc

    def _check_alive(self) -> None:
        if self.crashed:
            raise SimulatedCrash(
                f"burst-buffer tier {self.name} is crashed; build a new "
                "tier over the device to recover"
            )

    # -- recovery ----------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild the segment table from the journal's durable prefix.

        Torn/mismatching DIRTY segments are *discarded* (their seal never
        completed or their bytes are damaged) so reads fall back to the
        base env — and if the PFS copy is missing too, the epoch simply
        never committed and the Checkpointer falls back further.  Valid
        DIRTY segments are re-queued for drain (idempotent: COMMIT only
        follows a fresh PFS fsync).
        """
        records = self.journal.replay()
        if not records and not any(
            p for p in self.device.paths() if not p.startswith(".bb/")
        ):
            return
        table: dict[str, _Segment] = {}
        for record in records:
            if record.op == OP_SEAL:
                table[record.path] = _Segment(
                    SegmentState.DIRTY, record.size, record.crc,
                    next(self._seq),
                )
            elif record.op == OP_COMMIT:
                seg = table.get(record.path)
                if (
                    seg is not None
                    and seg.size == record.size
                    and seg.crc == record.crc
                ):
                    seg.state = SegmentState.COMMITTED
            elif record.op == OP_DELETE:
                table.pop(record.path, None)
            elif record.op == OP_RENAME and record.path in table:
                table[record.dst] = table.pop(record.path)
        recovered = discarded = 0
        for path, seg in sorted(table.items()):
            if self.device.exists(path):
                content = self.device.read(path, 0, self.device.size(path))
                valid = (
                    len(content) == seg.size and crc32c(content) == seg.crc
                )
            else:
                content, valid = b"", False
            if valid:
                seg.resident = True
                self._segments[path] = seg
                if seg.state is SegmentState.DIRTY:
                    recovered += 1
                    self.stats.dirty_bytes += seg.size
                    self._enqueue(path, seg.seq)
            elif seg.state is SegmentState.COMMITTED:
                # the PFS copy is the durable one; drop the damaged blob
                if self.device.exists(path):
                    self.device.delete(path)
                seg.resident = False
                self._segments[path] = seg
            else:
                if self.device.exists(path):
                    self.device.delete(path)
                discarded += 1
        # blobs with no durable SEAL were never observably synced: a
        # crash is allowed to lose them entirely
        for path in self.device.paths():
            if path.startswith(".bb/") or path in table:
                continue
            self.device.delete(path)
            discarded += 1
        self.stats.segments_recovered += recovered
        self.stats.segments_discarded += discarded
        self._refresh_gauges()
        tracer = _trace.TRACER
        if tracer is not None and (recovered or discarded):
            tracer.instant(
                "bb", "recover", tier=self.name,
                recovered=recovered, discarded=discarded,
            )

    # -- write path (called by _BBWritableFile) ----------------------------

    def _open_segment(self, path: str) -> bool:
        """Start (or restart) a device-resident file at ``path``.

        Returns False when the tier is degraded to write-through or the
        device is down — the caller writes to the base env instead.
        """
        self._check_alive()
        self._advance(sim.now())
        if not self.device.up:
            self._degrade("device down")
            return False
        old = self._segments.pop(path, None)
        if old is not None:
            self.journal.delete(path)
            if old.state is SegmentState.DIRTY:
                self.stats.dirty_bytes -= old.size
        if self.device.exists(path):
            self.device.delete(path)
        self.device.create(path)
        self._open_paths.add(path)
        return True

    def _absorb(self, path: str, chunk: bytes) -> bool:
        """Append ``chunk`` on the device; False → degrade the writer.

        The absorb latency histogram covers the whole admission — room
        making (evict + backpressure wait) included — because that wait
        is exactly what the tier's effective-bandwidth claim hides.
        """
        with _trace.timer("bb.absorb"):
            self._check_alive()
            self._advance(sim.now())
            if not self.device.up:
                self._degrade("device down")
                return False
            if not self._make_room(len(chunk)):
                if not self.config.degrade_on_overflow:
                    raise StorageIOError(
                        f"burst buffer full ({self.device.used_bytes} / "
                        f"{self.config.capacity} bytes) and degradation "
                        "is disabled"
                    )
                self._degrade("tier overflow")
                return False
            try:
                self.device.append(path, chunk)
            except StorageIOError:
                self._degrade("device failed mid-write")
                return False
            self.stats.bytes_absorbed += len(chunk)
            self._refresh_gauges()
            return True

    def _make_room(self, nbytes: int) -> bool:
        """The first two ladder rungs: evict, then backpressure-wait."""
        if self.device.free_bytes >= nbytes:
            return True
        self._evict_committed(nbytes)
        if self.device.free_bytes >= nbytes:
            return True
        deadline = sim.now() + self.config.overflow_timeout
        waited_from = sim.now()
        self.stats.overflow_waits += 1
        self._report.overflow_waits += 1
        try:
            with _trace.probe(
                "bb", "backpressure", tier=self.name, nbytes=nbytes,
            ):
                while sim.now() < deadline:
                    if self._pending == 0 and not self._parked:
                        break  # nothing draining: waiting cannot help
                    sim.sleep(min(_BACKPRESSURE_SLICE, deadline - sim.now()))
                    self._check_alive()
                    self._evict_committed(nbytes)
                    if self.device.free_bytes >= nbytes:
                        return True
        finally:
            waited = sim.now() - waited_from
            self.stats.overflow_wait_time += waited
            self._report.overflow_wait_time += waited
        return self.device.free_bytes >= nbytes

    def _evict_committed(self, needed: int) -> None:
        """Drop resident COMMITTED blobs (their PFS copy is durable)."""
        if self.device.free_bytes >= needed:
            return
        for path in sorted(self._segments):
            seg = self._segments[path]
            if seg.state is not SegmentState.COMMITTED or not seg.resident:
                continue
            if path in self._open_paths:
                continue  # an open writer is still appending to the blob
            if not self.device.exists(path):
                seg.resident = False
                continue
            self.device.delete(path)
            seg.resident = False
            self.stats.evictions += 1
            self._report.evictions += 1
            if self.device.free_bytes >= needed:
                break
        self._refresh_gauges()

    def _degrade(self, reason: str) -> None:
        self.stats.degraded_writes += 1
        self._report.write_through = True
        if self._report.error is None:
            self._report.error = reason
        self.last_degraded_report = self._report
        tracer = _trace.TRACER
        if tracer is not None:
            tracer.instant("bb", "degrade", tier=self.name, reason=reason)

    def _seal(self, path: str) -> None:
        """Make the segment durable and queue its drain (state DIRTY)."""
        self._check_alive()
        self.device.sync(path)
        size = self.device.size(path)
        content = self.device.read(path, 0, size) if size else b""
        crc = crc32c(content)
        self._seal_count += 1
        torn = self._seal_crashes.pop(self._seal_count, None)
        if torn is not None:
            # crash between the SEAL append and the journal fsync: the
            # record may tear; the caller's sync() never returns, so
            # losing this segment is within the storage contract
            self.journal.append(
                JournalRecord(op=OP_SEAL, path=path, size=size, crc=crc),
                sync=False,
            )
            self._crash_now(
                f"node died during seal #{self._seal_count} of {path} "
                "(torn journal record)"
            )
        self.journal.seal(path, size, crc)
        old = self._segments.get(path)
        if old is not None and old.state is SegmentState.DIRTY:
            self.stats.dirty_bytes -= old.size
        seq = next(self._seq)
        self._segments[path] = _Segment(SegmentState.DIRTY, size, crc, seq)
        self.stats.segments_sealed += 1
        self.stats.dirty_bytes += size
        self._refresh_gauges()
        self._enqueue(path, seq)
        tracer = _trace.TRACER
        if tracer is not None:
            tracer.instant("bb", "seal", tier=self.name, path=path, nbytes=size)

    def _enqueue(self, path: str, seq: int) -> None:
        self._pending += 1
        self._queue.put((path, seq))

    # -- the async drain ---------------------------------------------------

    def _drain_worker(self) -> None:
        while True:
            task = self._queue.get()
            if task is None:
                return
            path, seq = task
            try:
                self._service(path, seq)
            finally:
                self._pending -= 1
                if self._pending == 0:
                    while self._waiters:
                        self._waiters.pop().succeed()

    def _service(self, path: str, seq: int) -> None:
        seg = self._segments.get(path)
        if (
            seg is None
            or seg.seq != seq
            or seg.state is not SegmentState.DIRTY
            or not seg.resident
        ):
            return  # superseded by a re-seal, rename, or delete
        self._drain_count += 1
        crash = self._drain_crashes.pop(self._drain_count, None)
        start = sim.now()
        try:
            with _trace.probe(
                "bb", "drain", "bb.drain", tier=self.name, path=path,
                nbytes=seg.size,
            ):
                self._copy_out(path, seg, crash)
        except StorageIOError as exc:
            self._parked[path] = seq
            self.stats.drain_failures += 1
            self._report.drain_failures += 1
            self._report.completed = False
            self._report.failed_segments = tuple(
                sorted(set(self._report.failed_segments) | {path})
            )
            self._report.error = self._report.error or str(exc)
            self.last_degraded_report = self._report
            return
        if self._segments.get(path) is not seg:
            # re-sealed/renamed while we were copying: the bytes we just
            # wrote are a stale prefix the newer drain task will overwrite
            return
        # phase 2: the PFS copy is durable — only now admit it
        self.journal.commit(path, seg.size, seg.crc)
        seg.state = SegmentState.COMMITTED
        self.stats.segments_committed += 1
        self.stats.bytes_drained += seg.size
        self.stats.dirty_bytes -= seg.size
        self.stats.drain_time += sim.now() - start
        self._refresh_gauges()

    def _copy_out(self, path: str, seg: _Segment,
                  crash: Optional[FaultSpec]) -> None:
        """Phase 1 with retry/backoff: segment bytes + fsync on the PFS."""
        attempts = 0
        chunk_size = self.config.drain_chunk
        while True:
            try:
                with io_priority(Priority.DRAIN):
                    out = self.base_env.new_writable_file(path)
                    offset = 0
                    while offset < seg.size:
                        chunk = self.device.read(path, offset, chunk_size)
                        if not chunk:
                            raise StorageIOError(
                                f"segment {path} shrank mid-drain"
                            )
                        out.append(chunk)
                        offset += len(chunk)
                        if (
                            crash is not None
                            and crash.phase == "mid_drain"
                            and offset * 2 >= seg.size
                        ):
                            self._crash_now(
                                f"node died mid-drain of {path} "
                                f"({offset}/{seg.size} bytes copied)"
                            )
                    out.sync()
                    if crash is not None and crash.phase == "pre_commit":
                        self._crash_now(
                            f"node died after draining {path} but before "
                            "the commit record"
                        )
                    out.close()
                return
            except SimulatedCrash:
                raise
            except StorageIOError:
                attempts += 1
                if attempts > self.config.drain_retries:
                    raise
                self.stats.drain_retries += 1
                self._report.drain_retries += 1
                sim.sleep(self.config.drain_backoff * (2 ** (attempts - 1)))

    # -- barriers & control ------------------------------------------------

    def drain_barrier(self) -> BurstBufferDegradedReport:
        """Block until the drain backlog is empty; return what happened.

        Parked segments (retry budget exhausted) do not block the
        barrier — they are reported as ``completed=False`` with their
        paths in ``failed_segments``; :meth:`retry_failed` re-queues
        them once the fault clears.
        """
        self._check_alive()
        while self._pending > 0:
            gate = sim.Event(self.engine, name=f"{self.name}.drained")
            self._waiters.append(gate)
            sim.wait(gate)
            self._check_alive()
        report = self._report
        self._report = BurstBufferDegradedReport()
        self.last_degraded_report = report
        return report

    def retry_failed(self) -> int:
        """Re-queue every parked segment (e.g. after OST recovery)."""
        self._check_alive()
        parked, self._parked = self._parked, {}
        requeued = 0
        for path, seq in sorted(parked.items()):
            seg = self._segments.get(path)
            if seg is None or seg.seq != seq:
                continue
            self._enqueue(path, seq)
            requeued += 1
        return requeued

    def crash(self) -> None:
        """Imperative node-death for tests: tear tails, kill the tier."""
        try:
            self._crash_now("burst-buffer node crashed (test-injected)")
        except SimulatedCrash:
            pass

    def close(self) -> None:
        """Stop the drain worker (pending tasks are abandoned)."""
        self._queue.put(None)
        metrics = _trace.METRICS
        if metrics is not None:
            metrics.unregister(f"bb.{self.name}")
        sampler = _trace.SAMPLER
        if sampler is not None:
            sampler.unregister(f"bb.{self.name}.resident_bytes")
            sampler.unregister(f"bb.{self.name}.dirty_bytes")

    # -- introspection -----------------------------------------------------

    @property
    def pending_drains(self) -> int:
        return self._pending

    @property
    def parked_segments(self) -> tuple[str, ...]:
        return tuple(sorted(self._parked))

    def segment_state(self, path: str) -> Optional[SegmentState]:
        seg = self._segments.get(path)
        return None if seg is None else seg.state

    def dirty_segments(self) -> list[str]:
        return sorted(
            p for p, s in self._segments.items()
            if s.state is SegmentState.DIRTY
        )

    def _refresh_gauges(self) -> None:
        stats = self.stats
        stats.resident_bytes = self.device.used_bytes
        if stats.resident_bytes > stats.max_resident_bytes:
            stats.max_resident_bytes = stats.resident_bytes
        if stats.dirty_bytes > stats.max_dirty_bytes:
            stats.max_dirty_bytes = stats.dirty_bytes
        tracer = _trace.TRACER
        if tracer is not None:
            tracer.gauge("bb", f"{self.name}.resident_bytes",
                         stats.resident_bytes)
            tracer.gauge("bb", f"{self.name}.dirty_bytes", stats.dirty_bytes)


# ---------------------------------------------------------------------------
# The Env facade
# ---------------------------------------------------------------------------


class _BBWritableFile(WritableFile):
    """Writes absorb into the device, degrading to write-through."""

    def __init__(self, tier: BurstBufferTier, path: str, on_device: bool):
        self._tier = tier
        self._path = path
        self._buffer = bytearray()
        self._base: Optional[WritableFile] = None
        self._closed = False
        self._sealed_length = -1
        if not on_device:
            self._to_base()

    def _to_base(self) -> None:
        self._base = self._tier.base_env.new_writable_file(self._path)

    def _migrate(self, pending: bytes) -> None:
        """Ladder rung 3: move this file's bytes to the base env."""
        tier = self._tier
        device = tier.device
        self._to_base()
        absorbed = b""
        if device.up and device.exists(self._path):
            absorbed = device.read(self._path, 0, device.size(self._path))
        if absorbed:
            self._base.append(absorbed)
        if self._sealed_length >= 0:
            # a sealed prefix was already durable on the device; keep
            # that durability promise on the new home before dropping it
            self._base.sync()
        old = tier._segments.pop(self._path, None)
        if old is not None:
            if old.state is SegmentState.DIRTY:
                tier.stats.dirty_bytes -= old.size
            try:
                tier.journal.delete(self._path)
            except StorageIOError:
                pass  # device down: the blob is gone with it
        if device.up and device.exists(self._path):
            device.delete(self._path)
        tier._open_paths.discard(self._path)
        tier._refresh_gauges()
        if pending:
            self._base.append(pending)
        tier.stats.bytes_written_through += len(absorbed) + len(pending)

    def append(self, data: bytes) -> None:
        if self._closed:
            raise StorageIOError(f"write to closed file {self._path}")
        if self._base is not None:
            self._tier.stats.bytes_written_through += len(data)
            self._base.append(data)
            return
        self._buffer += data
        while self._base is None and len(self._buffer) >= _WRITE_BUFFER:
            self._emit(_WRITE_BUFFER)

    def _emit(self, nbytes: int) -> None:
        chunk = bytes(self._buffer[:nbytes])
        del self._buffer[:nbytes]
        if not self._tier._absorb(self._path, chunk):
            rest = bytes(self._buffer)
            del self._buffer[:]
            self._migrate(chunk + rest)

    def flush(self) -> None:
        if self._base is not None:
            if self._buffer:  # leftovers from before a migration
                self._base.append(bytes(self._buffer))
                self._tier.stats.bytes_written_through += len(self._buffer)
                del self._buffer[:]
            self._base.flush()
            return
        if self._buffer:
            self._emit(len(self._buffer))
            if self._base is not None:
                self._base.flush()

    def sync(self) -> None:
        self.flush()
        if self._base is not None:
            self._base.sync()
            return
        self._tier._seal(self._path)
        self._sealed_length = self._tier.device.size(self._path)

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        if self._base is not None:
            self._base.close()
        elif self._sealed_length != self._tier.device.size(self._path):
            # close() makes the file durable in this env family (the
            # simulated client fsyncs on close); seal unless the last
            # sync already covered every byte
            self._tier._seal(self._path)
        self._tier._open_paths.discard(self._path)
        self._closed = True


class _BBRandomAccessFile(RandomAccessFile):
    def __init__(self, device: BurstBufferDevice, path: str):
        self._device = device
        self._path = path

    def read(self, offset: int, nbytes: int) -> bytes:
        return self._device.read(self._path, offset, nbytes)

    def size(self) -> int:
        return self._device.size(self._path)

    def close(self) -> None:
        pass


class _BBSequentialFile(SequentialFile):
    def __init__(self, device: BurstBufferDevice, path: str):
        self._device = device
        self._path = path
        self._pos = 0

    def read(self, nbytes: int) -> bytes:
        out = self._device.read(self._path, self._pos, nbytes)
        self._pos += len(out)
        return out

    def close(self) -> None:
        pass


class BurstBufferEnv(Env):
    """Union namespace: the fast tier shadows the base (PFS) env.

    Reads prefer the device copy (resident segments) and fall back to
    the base env for drained-and-evicted, migrated, or discarded
    segments — the crash-consistency fallback path the Checkpointer
    leans on.
    """

    def __init__(self, tier: BurstBufferTier):
        self.tier = tier
        self.base = tier.base_env

    # the manager's fault plumbing and scheduler knobs reach through
    @property
    def client(self):
        return getattr(self.base, "client", None)

    @property
    def cluster(self):
        return getattr(self.base, "cluster", None)

    @staticmethod
    def _norm(path: str) -> str:
        return path.strip("/").replace("//", "/")

    def _on_device(self, path: str) -> bool:
        norm = self._norm(path)
        return not norm.startswith(".bb/") and self.tier.device.exists(norm)

    # -- files -------------------------------------------------------------

    def new_writable_file(self, path: str) -> WritableFile:
        norm = self._norm(path)
        on_device = self.tier._open_segment(norm)
        return _BBWritableFile(self.tier, norm, on_device)

    def new_random_access_file(self, path: str) -> RandomAccessFile:
        if self._on_device(path):
            return _BBRandomAccessFile(self.tier.device, self._norm(path))
        return self.base.new_random_access_file(path)

    def new_sequential_file(self, path: str) -> SequentialFile:
        if self._on_device(path):
            return _BBSequentialFile(self.tier.device, self._norm(path))
        return self.base.new_sequential_file(path)

    # -- namespace ---------------------------------------------------------

    def file_exists(self, path: str) -> bool:
        return self._on_device(path) or self.base.file_exists(path)

    def file_size(self, path: str) -> int:
        if self._on_device(path):
            return self.tier.device.size(self._norm(path))
        return self.base.file_size(path)

    def delete_file(self, path: str) -> None:
        norm = self._norm(path)
        tier = self.tier
        found = False
        seg = tier._segments.pop(norm, None)
        if seg is not None:
            tier.journal.delete(norm)
            if seg.state is SegmentState.DIRTY:
                tier.stats.dirty_bytes -= seg.size
            found = True
        if tier.device.exists(norm):
            tier.device.delete(norm)
            found = True
        try:
            self.base.delete_file(path)
            found = True
        except NotFoundError:
            pass
        tier._refresh_gauges()
        if not found:
            raise NotFoundError(f"no such file: {path}")

    def rename_file(self, src: str, dst: str) -> None:
        nsrc, ndst = self._norm(src), self._norm(dst)
        tier = self.tier
        found = False
        seg = tier._segments.pop(nsrc, None)
        if seg is not None:
            tier.journal.rename(nsrc, ndst)
            stale = tier._segments.pop(ndst, None)
            if stale is not None and stale.state is SegmentState.DIRTY:
                tier.stats.dirty_bytes -= stale.size
            # bump the seq so an in-flight drain of the old name is a
            # no-op, and re-queue the new name if still dirty
            seg.seq = next(tier._seq)
            tier._segments[ndst] = seg
            if seg.state is SegmentState.DIRTY and seg.resident:
                tier._enqueue(ndst, seg.seq)
            found = True
        if tier.device.exists(nsrc):
            tier.device.rename(nsrc, ndst)
            found = True
        try:
            self.base.rename_file(src, dst)
            found = True
        except NotFoundError:
            pass
        if not found:
            raise NotFoundError(f"no such file: {src}")

    def create_dir(self, path: str) -> None:
        self.base.create_dir(path)

    def get_children(self, path: str) -> list[str]:
        norm = self._norm(path)
        prefix = norm + "/" if norm else ""
        children: set[str] = set()
        base_missing = False
        try:
            children.update(self.base.get_children(path))
        except NotFoundError:
            base_missing = True
        for blob in self.tier.device.paths():
            if blob.startswith(".bb/"):
                continue
            if blob.startswith(prefix):
                children.add(blob[len(prefix):].split("/", 1)[0])
        if not children and base_missing:
            raise NotFoundError(f"no such directory: {path}")
        return sorted(children)

    def join(self, *parts: str) -> str:
        return self.base.join(*parts)

    def lock_file(self, path: str) -> object:
        return self.base.lock_file(path)

    def unlock_file(self, token: object) -> None:
        self.base.unlock_file(token)
