"""The database: LevelDB/RocksDB-shaped facade over all engine components.

Write path (``put``/``append``/``delete``/``write``):

1. stamp the batch with fresh sequence numbers;
2. append it to the WAL (unless disabled — LSMIO's configuration);
3. insert each operation into the memtable;
4. when the memtable reaches ``write_buffer_size``, freeze it and hand a
   flush job to the executor — the flush emits one SSTable with a single
   long sequential write, which is the mechanism the paper leans on.

Read path (``get``): memtable → frozen memtables → L0 newest-first → one
file per deeper level, accumulating ``append`` operands until a base value
or tombstone resolves the chain.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

from repro.errors import (
    ClosedError,
    InvalidArgumentError,
    NotFoundError,
    SimulationError,
    StorageIOError,
)
from repro.lsm.batch import WriteBatch
from repro.lsm.cache import LRUCache
from repro.lsm.compaction import (
    COMPACTION_PIPELINE_BYTES,
    FLUSH_PIPELINE_BYTES,
    CompactionExecutor,
    CompactionPlan,
    CompactionStats,
    PipelinedTableFile,
    group_ranges,
    is_bottommost,
    pick_compaction,
    plan_compaction,
)
from repro.lsm.dbformat import (
    MAX_SEQUENCE,
    ValueType,
    seek_key,
    seek_order,
)
from repro.io import Priority, io_priority
from repro.lsm.env import Env, LocalFsEnv
from repro.lsm.executors import Executor, SyncExecutor
from repro.lsm.iterator import (
    MergingIterator,
    resolve_user_entries,
    resolve_versions,
)
from repro.lsm.manifest import FileMetaData, Version, VersionEdit, VersionSet
from repro.lsm.memtable import MemTable
from repro.lsm.options import (
    BLOCK_CACHE_CAPACITY,
    MAX_OPEN_FILES,
    Options,
    ReadOptions,
    WriteOptions,
)
from repro.lsm.pacing import CompactionPacer
from repro.lsm.sstable import Table, TableBuilder
from repro.lsm.wal import LogReader, LogWriter
from repro.trace import runtime as _trace

_FILE_RE = re.compile(r"^(\d{6})\.(log|sst)$")

#: subcompaction outputs are written under temp names (never matching
#: _FILE_RE, so obsolete-file sweeps ignore them) and renamed to their
#: final file number only at atomic install time
_SUB_TMP_SUFFIX = ".sst.tmp"


def table_file_name(number: int) -> str:
    return f"{number:06d}.sst"


def subcompaction_temp_name(compaction_seq: int, range_index: int, output_seq: int) -> str:
    return f"sub-{compaction_seq:04d}-{range_index:03d}-{output_seq:03d}{_SUB_TMP_SUFFIX}"


def log_file_name(number: int) -> str:
    return f"{number:06d}.log"


class Snapshot:
    """A consistent read point: sequences after it are invisible.

    Live snapshots also pause compaction, so the versions they can see
    are never merged away (a simple, safe policy — checkpoint readers
    hold snapshots briefly).  Release with :meth:`release` or use as a
    context manager.
    """

    __slots__ = ("sequence", "_db", "_released")

    def __init__(self, db: "DB", sequence: int):
        self.sequence = sequence
        self._db = db
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._db._release_snapshot(self)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class DBStats:
    """Lifetime counters surfaced through :attr:`DB.stats`."""

    def __init__(self) -> None:
        self.writes = 0
        self.bytes_written = 0
        self.gets = 0
        self.memtable_flushes = 0
        self.flushed_bytes = 0
        self.compactions = 0
        self.compacted_bytes = 0
        self.wal_records = 0
        self.wal_syncs = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


_DEFAULT_WRITE_OPTIONS = WriteOptions()
_DEFAULT_READ_OPTIONS = ReadOptions()


class DB:
    """An embedded LSM-tree key/value database."""

    #: quiet polls a *running* compaction is granted at the stop trigger
    #: before the parked write is admitted anyway (a hung compaction
    #: must degrade to slow writes, not an unbounded park)
    _STALL_MAX_STALE_POLLS = 256
    #: recheck interval (seconds) while parked at the stop trigger
    _STALL_POLL_INTERVAL = 1e-3

    def __init__(self) -> None:
        raise TypeError("use DB.open()")

    @classmethod
    def open(
        cls,
        dbname: str,
        options: Optional[Options] = None,
        env: Optional[Env] = None,
        executor: Optional[Executor] = None,
    ) -> "DB":
        """Open (creating if configured) the database at ``dbname``."""
        self = object.__new__(cls)
        self._options = options or Options()
        self._env = env or LocalFsEnv(use_mmap_reads=self._options.use_mmap_reads)
        self._dbname = dbname
        self._executor = executor or SyncExecutor()
        self._owns_executor = executor is None
        # Re-entrant and safe to hold across simulated I/O (manifest and
        # WAL writes happen under it) — see repro.sim.locks.
        from repro.sim.locks import AdaptiveRLock

        self._lock = AdaptiveRLock()
        self._closed = False
        self.stats = DBStats()
        metrics = _trace.METRICS
        if metrics is not None:
            metrics.register(f"lsm.db.{dbname}", self.stats)
        self._wal_scratch = bytearray()  # WAL encode buffer, used under _lock
        self._mem = MemTable()
        self._imm: list[MemTable] = []
        self._wal: Optional[LogWriter] = None
        self._wal_number = 0
        self._obsolete_wals: list[int] = []
        # First failed flush (LevelDB's bg_error_); see _flush_job.
        self._bg_error: Optional[Exception] = None
        self._table_cache = LRUCache(MAX_OPEN_FILES)
        self._block_cache = LRUCache(BLOCK_CACHE_CAPACITY)
        self._snapshots: list[Snapshot] = []
        self._compacting = False
        self.compaction_stats = CompactionStats()
        if metrics is not None:
            metrics.register(f"lsm.compaction.{dbname}", self.compaction_stats)
        self._compaction_seq = 0
        # The stop-park progress guard also watches the I/O scheduler's
        # COMPACTION-class counters (when the env exposes one): a long
        # merge only bumps DB counters at install time, but its RPCs
        # move the scheduler's continuously.
        self._io_sched = getattr(
            getattr(self._env, "client", None), "scheduler", None
        )
        self._pacer: Optional[CompactionPacer] = None
        if self._options.compaction_pacing and self._options.enable_compaction:
            self._pacer = CompactionPacer(
                self._options,
                stats=self.compaction_stats,
                scheduler=self._io_sched,
            )

        self._env.create_dir(dbname)
        # Exclusive advisory lock: two live DB handles on one directory
        # would corrupt the manifest (LevelDB's LOCK file).
        self._db_lock_token = self._env.lock_file(
            self._env.join(dbname, "LOCK")
        )
        self._versions = VersionSet(self._env, dbname, self._options.num_levels)
        current_exists = self._env.file_exists(
            self._env.join(dbname, "CURRENT")
        )
        if current_exists:
            if self._options.error_if_exists:
                raise InvalidArgumentError(f"database exists: {dbname}")
            self._versions.recover()
            # Leftover subcompaction partials from a crashed run are
            # never referenced by the manifest; drop them before replay.
            # (A freshly created DB can't have any — skipping the scan
            # there keeps the clean-open timing unchanged.)
            for name in self._env.get_children(dbname):
                if name.endswith(_SUB_TMP_SUFFIX):
                    self._env.delete_file(self._env.join(dbname, name))
            self._replay_wals()
        else:
            if not self._options.create_if_missing:
                raise NotFoundError(f"database missing: {dbname}")
            self._versions.create()
        self._roll_wal()
        if current_exists and self._options.enable_wal:
            # Every pre-existing log was either replayed-and-flushed or
            # empty; advance the manifest's log boundary past them.
            self._versions.log_and_apply(VersionEdit(log_number=self._wal_number))
            self._remove_obsolete_files()
        sampler = _trace.SAMPLER
        if sampler is not None:
            sampler.register(
                f"lsm.{dbname}.memtable_bytes",
                lambda db=self: db._mem.approximate_memory_usage(),
            )
            sampler.register(
                f"lsm.{dbname}.pending_l0",
                lambda db=self: db._pending_l0(),
            )
            if self._pacer is not None:
                sampler.register(
                    f"lsm.{dbname}.compaction_debt",
                    lambda db=self: db._pacer.compaction_debt(
                        db._versions.current
                    ),
                )
        return self

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _replay_wals(self) -> None:
        """Re-apply batches from log segments >= the manifest's log number."""
        numbers = []
        for name in self._env.get_children(self._dbname):
            match = _FILE_RE.match(name)
            if match and match.group(2) == "log":
                number = int(match.group(1))
                if number >= self._versions.log_number:
                    numbers.append(number)
        for number in sorted(numbers):
            path = self._env.join(self._dbname, log_file_name(number))
            reader = LogReader(
                self._env.new_sequential_file(path),
                checksum=self._options.checksum,
                allow_partial=True,
            )
            try:
                for record in reader:
                    batch, sequence = WriteBatch.deserialize(record)
                    self._apply_to_memtable(batch, sequence)
                    self._versions.last_sequence = max(
                        self._versions.last_sequence,
                        sequence + len(batch) - 1,
                    )
                    if (
                        self._mem.approximate_memory_usage()
                        >= self._options.write_buffer_size
                    ):
                        self._freeze_memtable(roll_wal=False)
            finally:
                reader.close()
            self._obsolete_wals.append(number)
        # Flush whatever the replay accumulated so the logs can be dropped.
        if len(self._mem) or self._imm:
            self._freeze_memtable(roll_wal=False)
        self._executor.drain()
        self._remove_obsolete_files()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def put(
        self, key: bytes, value: bytes, write_options: Optional[WriteOptions] = None
    ) -> None:
        """Set ``key`` to ``value`` (overwriting)."""
        batch = WriteBatch()
        batch.put(key, value)
        self.write(batch, write_options)

    def append(
        self, key: bytes, value: bytes, write_options: Optional[WriteOptions] = None
    ) -> None:
        """Append ``value`` to the existing value of ``key`` (merge op)."""
        batch = WriteBatch()
        batch.merge(key, value)
        self.write(batch, write_options)

    def delete(
        self, key: bytes, write_options: Optional[WriteOptions] = None
    ) -> None:
        """Remove ``key`` (tombstone insert)."""
        batch = WriteBatch()
        batch.delete(key)
        self.write(batch, write_options)

    def write(
        self, batch: WriteBatch, write_options: Optional[WriteOptions] = None
    ) -> None:
        """Apply ``batch`` atomically: one WAL record, one memtable apply.

        Admission control (:meth:`_maybe_stall_write`) runs before any
        lock; the commit runs under ``self._lock``, which also serializes
        concurrent writers.  Grouping many operations into one commit is
        the caller's job: LSMIO's manager accumulates a rank's (or a
        collective group's) writes into one batch.
        """
        write_options = write_options or _DEFAULT_WRITE_OPTIONS
        if len(batch) == 0:
            return
        self._maybe_stall_write()
        with self._lock:
            self._check_writable()
            self._commit(batch, write_options)

    def _commit(self, batch: WriteBatch, write_options: WriteOptions) -> None:
        """Sequence, log and apply one batch (``self._lock`` held)."""
        with _trace.probe("lsm", "commit", "lsm.commit") as span:
            sequence = self._versions.last_sequence + 1
            self._versions.last_sequence += len(batch)
            use_wal = self._options.enable_wal and not write_options.disable_wal
            span.set(nbytes=batch.payload_bytes, wal=use_wal)
            if use_wal:
                scratch = self._wal_scratch
                del scratch[:]
                self._wal.add_record(batch.serialize_into(scratch, sequence))
                self.stats.wal_records += 1
                if write_options.sync:
                    self._wal.sync()
                    self.stats.wal_syncs += 1
            self._apply_to_memtable(batch, sequence)
            self.stats.writes += len(batch)
            self.stats.bytes_written += batch.payload_bytes
            if self._options.cpu_charge is not None:
                # Charge per sealed segment (one per operation the manager
                # accumulated), so batching changes wall-clock cost, not
                # the modeled CPU time or simulated timings.
                for charge in batch.charge_sizes():
                    self._options.cpu_charge(charge, "memtable-insert")
            if (
                self._mem.approximate_memory_usage()
                >= self._options.write_buffer_size
            ):
                self._freeze_memtable(roll_wal=True)

    def _apply_to_memtable(self, batch: WriteBatch, sequence: int) -> None:
        for offset, (vtype, key, value) in enumerate(batch.items()):
            self._mem.add(sequence + offset, vtype, key, value)

    # ------------------------------------------------------------------
    # Write stalls (slowdown/stop triggers + stall-aware pacing)
    # ------------------------------------------------------------------

    @staticmethod
    def _stall_sleep(seconds: float) -> None:
        from repro.sim.locks import _current_sim_process

        if _current_sim_process() is not None:
            from repro import sim

            sim.sleep(seconds)
        else:
            import time

            # Real-clock worlds cap the park so a stuck trigger degrades
            # to polling rather than a long uninterruptible sleep.
            time.sleep(min(seconds, 0.05))

    def _pending_l0(self) -> int:
        """L0 files plus frozen memtables awaiting flush.

        Each frozen memtable becomes an L0 file the moment its FLUSH job
        runs, so the stall triggers must count it already — otherwise a
        long compaction ahead of the flush queue hides the backpressure
        and the frozen queue grows without bound (RocksDB counts pending
        flushes in its write-stall decision for the same reason).
        """
        return self._versions.current.num_files(0) + len(self._imm)

    def _maybe_stall_write(self) -> None:
        """Foreground admission control before a write takes the lock.

        Runs before any lock is taken: parking here must never block the
        background compaction that resolves the pressure (it needs
        ``self._lock`` to install its result).  Three regimes, mirroring
        RocksDB: the pacer's smooth quadratic delay below the triggers,
        a ramping delay in the slowdown band, and a bounded park at the
        stop trigger.
        """
        options = self._options
        if not options.enable_compaction or self._closed:
            return
        l0 = self._pending_l0()
        slowdown = options.level0_slowdown_writes_trigger
        stop = options.level0_stop_writes_trigger
        pacer = self._pacer
        if pacer is not None:
            # Re-derive pressure on every admission, not just at version
            # installs: backlog accumulates *during* a long merge (frozen
            # memtables pile up behind it), and a controller that only
            # samples at install boundaries oscillates into the slowdown
            # band once per compaction cycle.  observe() is a pure
            # function of the version shape, so this stays deterministic.
            pacer.observe(self._versions.current, len(self._imm))
        delay = pacer.write_delay() if pacer is not None else 0.0
        if l0 < slowdown and delay <= 0.0:
            return
        stats = self.compaction_stats
        if l0 >= stop:
            stats.stop_writes += 1
            start = _trace.ambient_clock()
            with _trace.probe("lsm", "write_stop", "lsm.stall", l0=l0):
                try:
                    self._wait_for_compaction_progress(stop)
                finally:
                    stats.stall_time += _trace.ambient_clock() - start
            l0 = self._pending_l0()
            if pacer is not None:
                pacer.observe(self._versions.current, len(self._imm))
            delay = pacer.write_delay() if pacer is not None else 0.0
        in_band = l0 >= slowdown
        if in_band:
            # Hard slowdown band: ramp from the configured delay toward
            # the stop trigger regardless of the pacer's smooth curve.
            ramp = (l0 - slowdown + 1) / max(1, stop - slowdown)
            delay = max(delay, options.slowdown_delay * min(1.0, ramp))
        if delay > 0.0:
            # Below the band the delay is the pacer's deliberate smooth
            # spreading, not a stall — traced under its own name so
            # stall-window accounting only counts involuntary waits.
            if in_band:
                stats.slowdown_writes += 1
            with _trace.probe(
                "lsm", "write_slowdown" if in_band else "pacer_delay", l0=l0
            ):
                self._stall_sleep(delay)
            if in_band:
                stats.stall_time += delay
            if pacer is not None:
                stats.pacer_delay_time += delay
            _trace.observe("lsm.stall" if in_band else "lsm.pacer_delay", delay)

    def _wait_for_compaction_progress(self, stop: int) -> None:
        """Park until L0 drops below the stop trigger or progress ceases.

        The progress guard prevents a deadlock when nothing can advance:
        under a synchronous executor the compaction already ran inline
        before this write, and a failed background job surfaces at the
        next barrier — in both cases parking forever would hang, so the
        write is admitted once polling observes no forward progress (a
        running compaction is granted a bounded number of quiet polls).
        DB counters only move at install time, so when the env exposes
        an I/O scheduler its COMPACTION-class counters join the marker —
        a long bandwidth-capped merge keeps the park alive as long as
        its RPCs keep flowing.
        """
        poll = self._STALL_POLL_INTERVAL
        sched = getattr(self._io_sched, "stats", None)

        def marker():
            state = (
                self.stats.compactions,
                self.stats.memtable_flushes,
                self._versions.current.num_files(0),
            )
            if sched is not None:
                state += (
                    sched.class_bytes["compaction"],
                    sched.class_issued["compaction"],
                )
            return state

        stale = 0
        while True:
            if self._pending_l0() < stop:
                return
            before = marker()
            self._stall_sleep(poll)
            if self._pending_l0() < stop:
                return
            if marker() != before:
                stale = 0
                continue
            stale += 1
            if stale >= self._STALL_MAX_STALE_POLLS or not self._compacting:
                return

    # ------------------------------------------------------------------
    # Flush
    # ------------------------------------------------------------------

    def _roll_wal(self) -> None:
        if not self._options.enable_wal:
            return
        if self._wal is not None:
            self._wal.close()
            self._obsolete_wals.append(self._wal_number)
        self._wal_number = self._versions.new_file_number()
        path = self._env.join(self._dbname, log_file_name(self._wal_number))
        self._wal = LogWriter(
            self._env.new_writable_file(path), checksum=self._options.checksum
        )

    def _freeze_memtable(self, roll_wal: bool) -> None:
        """Move the active memtable to the frozen queue and schedule flush."""
        if not len(self._mem):
            return
        frozen = self._mem
        self._imm.append(frozen)
        tracer = _trace.TRACER
        if tracer is not None:
            tracer.instant(
                "lsm", "memtable_freeze",
                nbytes=frozen.approximate_memory_usage(),
                frozen=len(self._imm),
            )
        self._mem = MemTable()
        min_log = None
        if roll_wal:
            self._roll_wal()
            if self._options.enable_wal:
                # Logs older than the fresh segment are covered by this
                # flush; recording the boundary in the manifest keeps
                # crash-recovery from replaying (and double-applying
                # append operands from) already-flushed batches.
                min_log = self._wal_number
        wal_to_retire = self._obsolete_wals[:]
        file_number = self._versions.new_file_number()
        self._executor.submit(
            lambda: self._flush_job(frozen, file_number, wal_to_retire, min_log),
            priority=Priority.FLUSH,
        )

    def _flush_job(
        self,
        frozen: MemTable,
        file_number: int,
        retired_wals: list[int],
        min_log: Optional[int] = None,
    ) -> None:
        """Write one frozen memtable as an L0 SSTable and install it.

        A failed flush leaves its memtable in ``_imm`` and its WAL on
        disk, and records the DB's background error.  Every later flush
        then stands down: installing one would retire the failed
        memtable's WAL (losing its writes at the next crash) and put a
        newer table behind an older memtable on the read path.  Writes
        and barriers fail from then on; reopening replays the WALs.
        """
        if self._bg_error is not None:
            return
        try:
            self._install_level0(frozen, file_number, retired_wals, min_log)
        except Exception as exc:
            self._bg_error = exc
            raise
        if self._options.enable_compaction:
            # Separate job, separate service class: a write barrier can
            # drain FLUSH work without waiting for the compaction debt.
            self._executor.submit(
                self._maybe_compact, priority=Priority.COMPACTION
            )

    def _install_level0(
        self,
        frozen: MemTable,
        file_number: int,
        retired_wals: list[int],
        min_log: Optional[int],
    ) -> None:
        with _trace.probe(
            "lsm", "memtable_flush", "lsm.flush", file=file_number
        ) as span:
            path = self._env.join(self._dbname, table_file_name(file_number))
            dest = self._env.new_writable_file(path)
            if self._sim_engine() is None:
                # On a real Env the table's writes and write-back run on
                # a writer thread behind the build; under the simulator
                # they stay inline, so simulated schedules do not move.
                dest = PipelinedTableFile(dest, limit=FLUSH_PIPELINE_BYTES)
            try:
                builder = TableBuilder(self._options, dest)
                for ikey, value in frozen.entries():
                    builder.add(ikey, value)
                size = builder.finish()
                dest.sync()
            finally:
                dest.close()
            span.set(nbytes=size)
            meta = FileMetaData(
                number=file_number,
                file_size=size,
                smallest=builder.first_key,
                largest=builder.last_key,
            )
            with self._lock:
                edit = VersionEdit(log_number=min_log)
                edit.add_file(0, meta)
                self._versions.log_and_apply(edit)
                if frozen in self._imm:
                    self._imm.remove(frozen)
                self.stats.memtable_flushes += 1
                self.stats.flushed_bytes += size
                for number in retired_wals:
                    if number in self._obsolete_wals:
                        self._obsolete_wals.remove(number)
                    self._delete_if_exists(log_file_name(number))
                if self._pacer is not None:
                    self._pacer.observe(self._versions.current, len(self._imm))

    def flush(self, wait: bool = True) -> None:
        """Flush buffered writes to SSTables (LSMIO's write barrier body)."""
        with self._lock:
            self._check_writable()
            self._freeze_memtable(roll_wal=True)
        if wait:
            self._executor.drain()

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def _maybe_compact(self) -> None:
        # Single-compactor guard: the background COMPACTION job and the
        # inline callers (compact_range, snapshot release) may overlap
        # under a threaded executor; whoever arrives second defers to the
        # running loop, which re-picks until no level is over budget.
        with self._lock:
            if self._compacting:
                return
            self._compacting = True
        try:
            while True:
                with self._lock:
                    if self._snapshots:
                        # Live snapshots pin every visible version; defer.
                        return
                    task = pick_compaction(self._versions.current, self._options)
                    if task is None:
                        return
                    drop = is_bottommost(self._versions.current, task)
                self._run_compaction(task, drop)
        finally:
            with self._lock:
                self._compacting = False

    def compact_range(self) -> None:
        """Manually compact until no level is over budget."""
        with self._lock:
            self._check_open()
        self.flush()
        # flush() drained every class (including the compaction job the
        # flush chained); one inline pass covers the compaction-disabled
        # configuration where no background job was submitted.
        self._maybe_compact()

    def _run_compaction(self, task, drop_tombstones: bool) -> None:
        with io_priority(Priority.COMPACTION):
            self._run_compaction_inner(task, drop_tombstones)

    @staticmethod
    def _sim_engine():
        """The ambient sim engine, or None outside the simulation."""
        from repro import sim

        try:
            return sim.current_engine()
        except SimulationError:
            return None

    def _index_user_keys(self, meta: FileMetaData) -> Optional[list]:
        """Index-block separator keys for the planner (None on failure)."""
        try:
            return self._table(meta.number).index_user_keys()
        except Exception:
            return None  # planner falls back to file-boundary candidates

    def _make_compaction_executor(self, compaction_seq: int = 0) -> CompactionExecutor:
        def open_table_iter(meta: FileMetaData):
            return iter(self._table(meta.number))

        def open_table_seek(meta: FileMetaData, lo_ikey: bytes):
            return self._table(meta.number).seek(lo_ikey)

        def new_table_writer():
            # Serial path: the output takes its final number immediately.
            with self._lock:
                number = self._versions.new_file_number()
            path = self._env.join(self._dbname, table_file_name(number))
            dest = self._env.new_writable_file(path)
            builder = TableBuilder(self._options, dest)

            def finalize(b: TableBuilder) -> int:
                try:
                    size = b.finish()
                    dest.sync()
                finally:
                    dest.close()
                return size

            return number, builder, finalize

        def new_range_writer(range_index: int, output_seq: int):
            # Partitioned path: write under a temp name (numbered and
            # renamed in key order at install — execution order must not
            # influence file numbering) behind the CPU/I-O pipeline.
            temp = subcompaction_temp_name(
                compaction_seq, range_index, output_seq
            )
            path = self._env.join(self._dbname, temp)
            dest = PipelinedTableFile(
                self._env.new_writable_file(path),
                engine=self._sim_engine(),
                limit=COMPACTION_PIPELINE_BYTES,
                cpu_charge=self._options.cpu_charge,
                stats=self.compaction_stats,
            )
            builder = TableBuilder(self._options, dest)

            def finalize(b: TableBuilder) -> int:
                try:
                    size = b.finish()
                    dest.sync()
                finally:
                    dest.close()
                return size

            return temp, builder, finalize

        return CompactionExecutor(
            self._options,
            open_table_iter,
            new_table_writer,
            open_table_seek=open_table_seek,
            new_range_writer=new_range_writer,
            stats=self.compaction_stats,
        )

    def _run_compaction_inner(self, task, drop_tombstones: bool) -> None:
        plan = plan_compaction(
            self._versions.current,
            task,
            self._options,
            drop_tombstones,
            index_user_keys=self._index_user_keys,
        )
        cstats = self.compaction_stats
        cstats.planned_boundaries += len(plan.boundaries)
        cstats.grandparent_seals += plan.grandparent_seals
        with _trace.probe(
            "lsm", "compaction", "lsm.compaction", level=task.level,
            nbytes=task.total_bytes(),
        ) as span:
            if plan.boundaries:
                self._run_partitioned(plan, span)
            else:
                executor = self._make_compaction_executor()
                edit = executor.run(task, drop_tombstones)
                with self._lock:
                    self._versions.log_and_apply(edit)
                    self.stats.compactions += 1
                    self.stats.compacted_bytes += task.total_bytes()
                    self._remove_obsolete_files()
                    if self._pacer is not None:
                        self._pacer.observe(
                            self._versions.current, len(self._imm)
                        )

    def _run_partitioned(self, plan: CompactionPlan, span) -> None:
        """Execute a planned compaction as parallel key-range partitions.

        Ranges are grouped contiguously onto ``fanout`` jobs, each run
        via the executor's ``run_jobs`` fan-out (concurrent sim
        processes under :class:`~repro.sim.executor.SimExecutor`,
        sequential elsewhere).  Outputs land as temp files; install then
        assigns file numbers in (range, output) key order, renames, and
        applies one merged :class:`VersionEdit` — making the result
        byte-identical to the serial merge for every fan-out.
        """
        task = plan.task
        self._compaction_seq += 1
        executor = self._make_compaction_executor(self._compaction_seq)
        ranges = plan.ranges
        fanout = self._options.max_subcompactions
        if self._pacer is not None:
            # Re-derive pressure from the version as of *now*: the last
            # observation happened at the previous install, and pressure
            # is typically low right after one — while a compaction only
            # starts because pressure built back up since.
            self._pacer.observe(self._versions.current, len(self._imm))
            fanout = max(1, min(fanout, self._pacer.fanout))
        span.set(ranges=len(ranges), fanout=fanout)
        outputs_by_range: dict[int, list] = {}

        def make_job(group):
            def job() -> None:
                for rng in group:
                    outputs_by_range[rng.index] = executor.run_range(
                        task, rng, plan.drop_tombstones
                    )

            return job

        self._executor.run_jobs(
            [make_job(group) for group in group_ranges(ranges, fanout)],
            priority=Priority.COMPACTION,
        )

        with self._lock:
            range_edits = []
            output_bytes = 0
            for index in sorted(outputs_by_range):
                edit = VersionEdit()
                for out in outputs_by_range[index]:
                    number = self._versions.new_file_number()
                    self._env.rename_file(
                        self._env.join(self._dbname, out.temp_name),
                        self._env.join(self._dbname, table_file_name(number)),
                    )
                    edit.add_file(
                        task.target_level,
                        FileMetaData(
                            number=number,
                            file_size=out.file_size,
                            smallest=out.smallest,
                            largest=out.largest,
                        ),
                    )
                    output_bytes += out.file_size
                range_edits.append(edit)
            delete_edit = VersionEdit()
            for meta in task.inputs[0]:
                delete_edit.delete_file(task.level, meta.number)
            for meta in task.inputs[1]:
                delete_edit.delete_file(task.target_level, meta.number)
            self._versions.log_and_apply(
                VersionEdit.merged(range_edits + [delete_edit])
            )
            self.stats.compactions += 1
            self.stats.compacted_bytes += task.total_bytes()
            cstats = self.compaction_stats
            cstats.parallel_compactions += 1
            cstats.sub_input_bytes += task.total_bytes()
            cstats.sub_output_bytes += output_bytes
            self._remove_obsolete_files()
            if self._pacer is not None:
                self._pacer.observe(self._versions.current, len(self._imm))

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def _table(self, file_number: int) -> Table:
        table = self._table_cache.get(file_number)
        if table is None:
            path = self._env.join(self._dbname, table_file_name(file_number))
            table = Table(
                self._options,
                self._env.new_random_access_file(path),
                file_number=file_number,
                block_cache=self._block_cache,
            )
            self._table_cache.insert(file_number, table, 1)
        return table

    def snapshot(self) -> Snapshot:
        """Capture a consistent read point at the current sequence."""
        with self._lock:
            self._check_open()
            snap = Snapshot(self, self._versions.last_sequence)
            self._snapshots.append(snap)
            return snap

    def _release_snapshot(self, snap: Snapshot) -> None:
        with self._lock:
            if snap in self._snapshots:
                self._snapshots.remove(snap)
            closed = self._closed
        # A closed DB has released its manifest and LOCK: nothing to compact.
        if self._options.enable_compaction and not closed:
            self._maybe_compact()

    def multi_get(
        self,
        keys,
        read_options: Optional[ReadOptions] = None,
    ) -> dict:
        """Batch lookup: {key: value-or-None} (None = absent).

        The batch form exists for the paper's §5.1 read-path future work
        ("batch read of the variables from the LSM-Tree"): keys are probed
        in sorted order, so block/readahead locality is sequential rather
        than random.
        """
        out = {}
        for key in sorted(set(bytes(k) for k in keys)):
            try:
                out[key] = self.get(key, read_options)
            except NotFoundError:
                out[key] = None
        return out

    def get(
        self, key: bytes, read_options: Optional[ReadOptions] = None
    ) -> bytes:
        """Return the value for ``key``; raises :class:`NotFoundError`."""
        if read_options is None:
            read_options = _DEFAULT_READ_OPTIONS
        snapshot = read_options.snapshot
        max_seq = MAX_SEQUENCE if snapshot is None else snapshot.sequence
        with self._lock:
            if self._closed:
                raise ClosedError("database is closed")
            self.stats.gets += 1
            memtables = [self._mem, *reversed(self._imm)]
            version = self._versions.current
        resolved = resolve_versions(
            self._versions_of(key, memtables, version, read_options, max_seq),
            max_seq,
        )
        if resolved is None or resolved[0] is ValueType.DELETE:
            raise NotFoundError(f"key not found: {key!r}")
        return resolved[1]

    def _versions_of(
        self,
        key: bytes,
        memtables: list[MemTable],
        version: Version,
        read_options: ReadOptions,
        max_seq: int,
    ) -> Iterator[tuple[bytes, bytes]]:
        """``key``'s versions newest first, read lazily source by source.

        Memtables come first, then the tables ``files_for_get`` names; a
        table whose bloom filter rules ``key`` out is never searched, and
        no later source is touched once the resolver has its answer.
        """
        bound = seek_order(key, max_seq)
        for mem in memtables:
            yield from mem.versions(key, bound)
        for _, meta in version.files_for_get(key):
            table = self._table(meta.number)
            if table.may_contain(key):
                yield from table.versions(bound, read_options)

    def __contains__(self, key: bytes) -> bool:
        try:
            self.get(key)
            return True
        except NotFoundError:
            return False

    def iterate(
        self,
        start: Optional[bytes] = None,
        stop: Optional[bytes] = None,
        read_options: Optional[ReadOptions] = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield user-visible (key, value) pairs with start <= key <= stop."""
        read_options = read_options or ReadOptions()
        max_seq = (
            read_options.snapshot.sequence
            if read_options.snapshot is not None
            else MAX_SEQUENCE
        )
        with self._lock:
            self._check_open()
            memtables = [self._mem] + list(reversed(self._imm))
            version = self._versions.current

        lo_ikey = seek_key(start if start is not None else b"", max_seq)
        streams = [mem.seek(lo_ikey) for mem in memtables]
        level0 = sorted(version.files[0], key=lambda f: f.number, reverse=True)
        for meta in level0:
            streams.append(self._table(meta.number).seek(lo_ikey, read_options))
        for level in range(1, version.num_levels):
            files = version.files[level]
            if files:
                streams.append(self._level_stream(files, lo_ikey, read_options))

        merged = MergingIterator(streams)
        for key, value in resolve_user_entries(merged, stop, max_seq):
            if start is not None and key < start:
                continue
            if stop is not None and key > stop:
                return
            yield key, value
            value = None  # hold nothing across the next pull

    def _level_stream(self, files, lo_ikey: bytes, read_options: ReadOptions):
        """Chain a sorted level's tables, starting at ``lo_ikey``."""
        started = False
        lo_user = lo_ikey[:-8]
        for meta in files:
            if not started and meta.largest_user_key < lo_user:
                continue
            table = self._table(meta.number)
            if not started:
                started = True
                yield from table.seek(lo_ikey, read_options)
            else:
                yield from iter(table)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def _delete_if_exists(self, name: str) -> None:
        path = self._env.join(self._dbname, name)
        if self._env.file_exists(path):
            self._env.delete_file(path)

    def _remove_obsolete_files(self) -> None:
        live = self._versions.live_file_numbers()
        for name in self._env.get_children(self._dbname):
            match = _FILE_RE.match(name)
            if not match:
                continue
            number, kind = int(match.group(1)), match.group(2)
            if kind == "sst" and number not in live:
                self._table_cache.erase(number)
                self._delete_if_exists(name)
            elif kind == "log" and number != self._wal_number:
                if number < self._versions.log_number:
                    self._delete_if_exists(name)

    def approximate_level_shape(self) -> list[tuple[int, int]]:
        """(file count, total bytes) per level — for tests and ablations."""
        with self._lock:
            version = self._versions.current
            return [
                (version.num_files(level), version.level_bytes(level))
                for level in range(version.num_levels)
            ]

    @property
    def options(self) -> Options:
        return self._options

    @property
    def env(self) -> Env:
        return self._env

    @property
    def name(self) -> str:
        return self._dbname

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError("database is closed")

    def _check_writable(self) -> None:
        self._check_open()
        if self._bg_error is not None:
            raise StorageIOError(
                "a memtable flush failed; reopen the database to recover"
            ) from self._bg_error

    def close(self) -> None:
        """Flush buffered writes and release every resource."""
        with self._lock:
            if self._closed:
                return
        if self._bg_error is None:
            self.flush()
        if self._owns_executor:
            self._executor.close()
        else:
            self._executor.drain()
        with self._lock:
            self._closed = True
            if self._wal is not None:
                self._wal.sync()
                self._wal.close()
                self._wal = None
            self._versions.close()
            self._block_cache.clear()
            self._env.unlock_file(self._db_lock_token)
        for table in self._table_cache.pop_all():
            table.close()
        sampler = _trace.SAMPLER
        if sampler is not None:
            for gauge in ("memtable_bytes", "pending_l0", "compaction_debt"):
                sampler.unregister(f"lsm.{self._dbname}.{gauge}")

    def __enter__(self) -> "DB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
