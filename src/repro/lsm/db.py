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
from collections import deque
from itertools import islice
from typing import Iterator, Optional

from repro.errors import (
    ClosedError,
    InvalidArgumentError,
    NotFoundError,
)
from repro.lsm.batch import WriteBatch
from repro.lsm.cache import LRUCache
from repro.lsm.compaction import (
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
    decode_internal_key,
    seek_key,
)
from repro.io import Priority, io_priority
from repro.lsm.env import Env, LocalFsEnv
from repro.lsm.executors import Executor, SyncExecutor
from repro.lsm.iterator import MergingIterator, resolve_user_entries
from repro.lsm.manifest import FileMetaData, VersionEdit, VersionSet
from repro.lsm.memtable import MemTable
from repro.lsm.options import Options, ReadOptions, WriteOptions
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
        #: group-commit counters: commits that merged >1 batch, follower
        #: batches absorbed into a leader's group, and the deepest the
        #: writer queue ever got.
        self.group_commits = 0
        self.batches_merged = 0
        self.max_commit_queue_depth = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


class _Writer:
    """One queued write: the batch, its options, and a parking gate."""

    __slots__ = ("batch", "sync", "disable_wal", "done", "error", "gate")

    def __init__(self, batch: WriteBatch, write_options: WriteOptions):
        self.batch = batch
        self.sync = write_options.sync
        self.disable_wal = write_options.disable_wal
        self.done = False
        self.error: Optional[BaseException] = None
        from repro.sim.locks import AdaptiveEvent

        self.gate = AdaptiveEvent()


_DEFAULT_WRITE_OPTIONS = WriteOptions()

#: LevelDB's group-size policy: cap merged groups at 1 MiB, but never let
#: a small leader wait behind more than 128 KiB of followers.
_MAX_GROUP_BYTES = 1 << 20
_SMALL_LEADER_BYTES = 128 << 10


class DB:
    """An embedded LSM-tree key/value database."""

    #: quiet polls a *running* compaction is granted at the stop trigger
    #: before the parked write is admitted anyway (a hung compaction
    #: must degrade to slow writes, not an unbounded park)
    _STALL_MAX_STALE_POLLS = 256

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
        # Group commit (LevelDB's writer queue): concurrent writers park
        # here; the queue head leads, merging follower batches into one
        # WAL record + one memtable apply.
        self._writer_queue: deque[_Writer] = deque()
        self._queue_lock = AdaptiveRLock()
        self._group_batch = WriteBatch()  # leader-only scratch
        self._wal_scratch = bytearray()  # leader-only WAL encode buffer
        self._mem = MemTable(seed=0)
        self._imm: list[MemTable] = []
        self._wal: Optional[LogWriter] = None
        self._wal_number = 0
        self._obsolete_wals: list[int] = []
        self._table_cache = LRUCache(self._options.max_open_files)
        self._block_cache = LRUCache(self._options.block_cache_capacity)
        self._mem_seed = 1
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
        """Apply ``batch`` atomically (group commit).

        Concurrent writers enqueue; the queue head becomes the *leader*,
        merges compatible follower batches into one WAL append + one
        memtable apply, and wakes the followers with the shared outcome —
        LevelDB's writer-queue pattern.  A commit failure is attributed to
        every batch in the merged group: each enqueuing caller observes
        the same exception.
        """
        write_options = write_options or _DEFAULT_WRITE_OPTIONS
        if len(batch) == 0:
            return
        self._maybe_stall_write()
        writer = _Writer(batch, write_options)
        with self._queue_lock:
            queue = self._writer_queue
            queue.append(writer)
            depth = len(queue)
            if depth > self.stats.max_commit_queue_depth:
                self.stats.max_commit_queue_depth = depth
            leads = queue[0] is writer
        if not leads:
            with _trace.probe(
                "lsm", "commit_stall", "lsm.commit_stall", depth=depth
            ):
                writer.gate.wait()
            if writer.done:
                if writer.error is not None:
                    raise writer.error
                return
            # Woken with done unset: the previous leader handed the queue
            # head to us — fall through and lead our own group.
        with self._lock:
            with self._queue_lock:
                group = self._build_group(writer)
            error: Optional[BaseException] = None
            try:
                self._check_open()
                self._commit_group(group)
            except BaseException as exc:  # attributed to the whole group
                error = exc
            with self._queue_lock:
                for _ in group:
                    self._writer_queue.popleft()
                next_leader = (
                    self._writer_queue[0] if self._writer_queue else None
                )
            for member in group:
                member.done = True
                member.error = error
                if member is not writer:
                    member.gate.set()
            if next_leader is not None:
                next_leader.gate.set()
        if error is not None:
            raise error

    def _build_group(self, leader: _Writer) -> list[_Writer]:
        """Collect the leader's group from the queue front (queue locked).

        Followers join while the merged size stays within LevelDB's
        policy and their options are compatible: the WAL decision must
        match, and a sync follower never rides a non-sync leader (its
        durability guarantee would silently weaken).
        """
        group = [leader]
        size = leader.batch.approximate_size
        max_size = _MAX_GROUP_BYTES
        if size <= _SMALL_LEADER_BYTES:
            max_size = size + _SMALL_LEADER_BYTES
        for follower in islice(self._writer_queue, 1, None):
            if follower.disable_wal != leader.disable_wal:
                break
            if follower.sync and not leader.sync:
                break
            size += follower.batch.approximate_size
            if size > max_size:
                break
            group.append(follower)
        return group

    def _commit_group(self, group: list[_Writer]) -> None:
        """One WAL append + one memtable apply for the whole group."""
        with _trace.probe(
            "lsm", "commit", "lsm.commit", group=len(group)
        ) as span:
            leader = group[0]
            if len(group) == 1:
                batch = leader.batch
            else:
                batch = self._group_batch
                batch.clear()
                for member in group:
                    batch.merge_from(member.batch)
                self.stats.group_commits += 1
                self.stats.batches_merged += len(group) - 1
            sequence = self._versions.last_sequence + 1
            self._versions.last_sequence += len(batch)
            use_wal = self._options.enable_wal and not leader.disable_wal
            span.set(nbytes=batch.payload_bytes, wal=use_wal)
            if use_wal:
                scratch = self._wal_scratch
                del scratch[:]
                self._wal.add_record(batch.serialize_into(scratch, sequence))
                self.stats.wal_records += 1
                if any(member.sync for member in group):
                    self._wal.sync()
                    self.stats.wal_syncs += 1
            self._apply_to_memtable(batch, sequence)
            self.stats.writes += len(batch)
            self.stats.bytes_written += batch.payload_bytes
            if self._options.cpu_charge is not None:
                # Charge per constituent batch, not per merged group, so the
                # modeled CPU cost (and simulated timings) of aggregated
                # writes is identical to committing them individually.
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
    def _stall_clock() -> float:
        from repro.sim.locks import _current_sim_process

        if _current_sim_process() is not None:
            from repro import sim

            return sim.now()
        import time

        return time.monotonic()

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
        """Foreground admission control before a write enters the queue.

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
            start = self._stall_clock()
            with _trace.probe("lsm", "write_stop", "lsm.stall", l0=l0):
                try:
                    self._wait_for_compaction_progress(stop)
                finally:
                    stats.stall_time += self._stall_clock() - start
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
        poll = self._options.stall_poll_interval
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
        self._mem = MemTable(seed=self._mem_seed)
        self._mem_seed += 1
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
        """Write one frozen memtable as an L0 SSTable and install it."""
        with _trace.probe(
            "lsm", "memtable_flush", "lsm.flush", file=file_number
        ) as span:
            path = self._env.join(self._dbname, table_file_name(file_number))
            dest = self._env.new_writable_file(path)
            builder = TableBuilder(self._options, dest)
            for ikey, value in frozen.entries():
                builder.add(ikey, value)
            size = builder.finish()
            dest.sync()
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
        if self._options.enable_compaction:
            # Separate job, separate service class: a write barrier can
            # drain FLUSH work without waiting for the compaction debt.
            self._executor.submit(
                self._maybe_compact, priority=Priority.COMPACTION
            )

    def flush(self, wait: bool = True) -> None:
        """Flush buffered writes to SSTables (LSMIO's write barrier body)."""
        with self._lock:
            self._check_open()
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
        try:
            from repro import sim

            return sim.current_engine()
        except Exception:
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
                size = b.finish()
                dest.sync()
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
                limit=self._options.compaction_pipeline_bytes,
                cpu_charge=self._options.cpu_charge,
                stats=self.compaction_stats,
            )
            builder = TableBuilder(self._options, dest)

            def finalize(b: TableBuilder) -> int:
                size = b.finish()
                dest.sync()
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
        if self._options.enable_compaction:
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
        read_options = read_options or ReadOptions()
        max_seq = (
            read_options.snapshot.sequence
            if read_options.snapshot is not None
            else MAX_SEQUENCE
        )
        with self._lock:
            self._check_open()
            self.stats.gets += 1
            memtables = [self._mem] + list(reversed(self._imm))
            version = self._versions.current

        operands: list[bytes] = []  # newest-first merge operands
        for mem in memtables:
            result = mem.get(key, max_sequence=max_seq)
            if result.state == "found":
                if operands:
                    return result.value + b"".join(reversed(operands))
                return result.value
            if result.state == "deleted":
                if operands:
                    return b"".join(reversed(operands))
                raise NotFoundError(f"key not found: {key!r}")
            if result.state == "merge":
                # memtable returned operands oldest→newest; we accumulate
                # newest-first, so extend with them reversed.
                operands.extend(reversed(result.operands))

        for _, meta in version.files_for_get(key):
            table = self._table(meta.number)
            if not table.may_contain(key):
                continue
            outcome = self._search_table(
                table, key, operands, read_options, max_seq
            )
            if outcome is not None:
                state, value = outcome
                if state == "found":
                    return value
                raise NotFoundError(f"key not found: {key!r}")

        if operands:
            return b"".join(reversed(operands))
        raise NotFoundError(f"key not found: {key!r}")

    def _search_table(
        self,
        table: Table,
        user_key: bytes,
        operands: list[bytes],
        read_options: ReadOptions,
        max_seq: int = MAX_SEQUENCE,
    ) -> Optional[tuple[str, bytes]]:
        """Scan one table's version chain for ``user_key``.

        Mutates ``operands`` (newest-first accumulator).  Returns
        ("found", value) / ("deleted", b"") to terminate, or None to
        continue into older tables.
        """
        for ikey, value in table.seek(seek_key(user_key, max_seq), read_options):
            parsed = decode_internal_key(ikey)
            if parsed.user_key != user_key:
                break
            if parsed.value_type is ValueType.VALUE:
                full = value + b"".join(reversed(operands)) if operands else value
                return ("found", full)
            if parsed.value_type is ValueType.DELETE:
                if operands:
                    return ("found", b"".join(reversed(operands)))
                return ("deleted", b"")
            operands.append(value)
        return None

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
        if max_seq != MAX_SEQUENCE:
            merged = (
                (ikey, value)
                for ikey, value in merged
                if decode_internal_key(ikey).sequence <= max_seq
            )
        for key, value in resolve_user_entries(merged, stop_after_user_key=stop):
            if start is not None and key < start:
                continue
            if stop is not None and key > stop:
                return
            yield key, value

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

    def close(self) -> None:
        """Flush buffered writes and release every resource."""
        with self._lock:
            if self._closed:
                return
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
        # Close cached table readers.
        for number in list(self._table_cache._entries):  # noqa: SLF001
            table = self._table_cache.get(number)
            if table is not None:
                table.close()
        self._table_cache.clear()
        sampler = _trace.SAMPLER
        if sampler is not None:
            for gauge in ("memtable_bytes", "pending_l0", "compaction_debt"):
                sampler.unregister(f"lsm.{self._dbname}.{gauge}")

    def __enter__(self) -> "DB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
