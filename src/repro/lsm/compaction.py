"""Leveled compaction: picking, planning, and executing the rolling merge.

The paper's description — "leaf nodes in C1 are never edited in-place but
instead new ones are added as part of an asynchronous rolling-merge process
where the old ones are deleted afterwards" — is exactly a leveled
compaction: merge-sort the input tables, write fresh output tables at the
next level, then drop the inputs from the version.

LSMIO *disables* compaction (checkpoints are write-once-read-rarely, so
paying merge bandwidth buys nothing); the implementation is complete here
because the engine is general and ``bench_ablations.py`` measures the cost
of leaving it on.

Subcompactions (Pome-style parallel compaction): one chosen compaction is
split into key-range partitions at *fan-out independent* boundaries —
user-key separators taken from the input tables' index blocks, segmented
by estimated bytes and capped by grandparent overlap.  Both the serial
merge and any parallel execution roll their output files at exactly these
boundaries, and installation assigns file numbers in key order, so the
partitioned result is byte-identical to the serial one: parallelism moves
*when* bytes are produced, never *what* bytes.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional

from repro.lsm.dbformat import MAX_SEQUENCE, encode_internal_key, seek_key
from repro.lsm.iterator import MergingIterator, collapse_internal_entries
from repro.lsm.manifest import FileMetaData, Version, VersionEdit
from repro.lsm.options import Options


@dataclass
class CompactionTask:
    """A chosen compaction: merge ``inputs[0]`` (level) with ``inputs[1]``."""

    level: int                      # source level
    inputs: list[list[FileMetaData]] = field(default_factory=lambda: [[], []])

    @property
    def target_level(self) -> int:
        return self.level + 1

    def all_inputs(self) -> list[FileMetaData]:
        return self.inputs[0] + self.inputs[1]

    def total_bytes(self) -> int:
        return sum(f.file_size for f in self.all_inputs())


def level_score(version: Version, level: int, options: Options) -> float:
    """Compaction pressure for ``level`` (>= 1.0 means compaction due).

    L0 is scored by file count (every L0 file is another sorted run each
    read must merge); deeper levels by bytes versus their budget.
    """
    if level == 0:
        return version.num_files(0) / options.level0_file_num_compaction_trigger
    if level >= version.num_levels - 1:
        return 0.0  # the bottom level has nowhere to compact into
    return version.level_bytes(level) / options.max_bytes_for_level(level)


def pick_compaction(version: Version, options: Options) -> Optional[CompactionTask]:
    """Choose the level with the highest score >= 1.0, or None."""
    best_level = -1
    best_score = 1.0
    for level in range(version.num_levels - 1):
        score = level_score(version, level, options)
        if score >= best_score:
            best_level = level
            best_score = score
    if best_level < 0:
        return None
    task = CompactionTask(level=best_level)
    if best_level == 0:
        # All L0 files participate: they may mutually overlap, and taking
        # every run keeps read amplification bounded after one pass.
        task.inputs[0] = list(version.files[0])
    else:
        # Oldest-first rotation through the level (LevelDB uses a compact
        # pointer; taking the file with the smallest number is the same
        # round-robin effect with no extra persistent state).
        task.inputs[0] = [min(version.files[best_level], key=lambda f: f.number)]
    if not task.inputs[0]:
        return None
    lo = min(f.smallest_user_key for f in task.inputs[0])
    hi = max(f.largest_user_key for f in task.inputs[0])
    task.inputs[1] = version.overlapping_files(task.target_level, lo, hi)
    return task


def is_bottommost(version: Version, task: CompactionTask) -> bool:
    """True when no level deeper than the target holds overlapping keys."""
    inputs = task.all_inputs()
    if not inputs:
        return True
    lo = min(f.smallest_user_key for f in inputs)
    hi = max(f.largest_user_key for f in inputs)
    for level in range(task.target_level + 1, version.num_levels):
        if version.overlapping_files(level, lo, hi):
            return False
    return True


# ---------------------------------------------------------------------------
# Subcompaction planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubcompactionRange:
    """One key-range partition: user keys in [lo, hi) (None = open end)."""

    index: int
    lo: Optional[bytes]
    hi: Optional[bytes]


@dataclass
class CompactionPlan:
    """A task plus its hard output boundaries (fan-out independent).

    ``boundaries`` are user keys: every output file rolls immediately
    before the first entry whose user key reaches the next boundary, in
    the serial merge and in every partition alike — that shared rolling
    rule is what makes the parallel result byte-identical.
    """

    task: CompactionTask
    drop_tombstones: bool
    boundaries: tuple[bytes, ...] = ()
    grandparent_seals: int = 0

    @property
    def ranges(self) -> list[SubcompactionRange]:
        bounds: list[Optional[bytes]] = [None, *self.boundaries, None]
        return [
            SubcompactionRange(i, bounds[i], bounds[i + 1])
            for i in range(len(bounds) - 1)
        ]


def compaction_boundaries(
    version: Version,
    task: CompactionTask,
    options: Options,
    index_user_keys: Optional[Callable[[FileMetaData], Optional[list]]] = None,
) -> tuple[tuple[bytes, ...], int]:
    """Hard output-boundary user keys for ``task`` (+ grandparent seals).

    Deterministic and independent of execution fan-out: candidates are
    the input tables' index-block separators (falling back to file
    boundaries when an index is unavailable), weighted by estimated
    bytes; a boundary is emitted whenever the accumulated estimate
    reaches ``target_file_size_base``, or earlier when the segment's
    grandparent overlap passes ``max_grandparent_overlap_bytes`` (the
    LevelDB ``ShouldStopBefore`` cap, applied at plan time).
    """
    inputs = task.all_inputs()
    if not inputs:
        return (), 0
    target = options.target_file_size_base
    if task.total_bytes() <= target:
        return (), 0

    lo = min(f.smallest_user_key for f in inputs)
    hi = max(f.largest_user_key for f in inputs)
    candidates: list[tuple[bytes, int]] = []
    for meta in inputs:
        keys = index_user_keys(meta) if index_user_keys is not None else None
        if keys:
            weight = max(1, meta.file_size // len(keys))
            candidates.extend((key, weight) for key in keys)
        else:
            candidates.append((meta.largest_user_key, meta.file_size))
    candidates.sort(key=lambda item: item[0])

    gp_level = task.target_level + 1
    grandparents = (
        version.overlapping_files(gp_level, lo, hi)
        if gp_level < version.num_levels
        else []
    )
    max_overlap = options.max_grandparent_overlap_bytes or 10 * target

    boundaries: list[bytes] = []
    seals = 0
    acc = 0          # estimated output bytes since the last boundary
    gp_bytes = 0     # grandparent bytes wholly passed since the last boundary
    gp_index = 0
    for key, weight in candidates:
        if key >= hi:
            break  # the final segment must keep at least one key
        acc += weight
        while (
            gp_index < len(grandparents)
            and grandparents[gp_index].largest_user_key < key
        ):
            gp_bytes += grandparents[gp_index].file_size
            gp_index += 1
        if key <= lo or (boundaries and key <= boundaries[-1]):
            continue
        if acc >= target or gp_bytes > max_overlap:
            if gp_bytes > max_overlap and acc < target:
                seals += 1
            boundaries.append(key)
            acc = 0
            gp_bytes = 0
    return tuple(boundaries), seals


def plan_compaction(
    version: Version,
    task: CompactionTask,
    options: Options,
    drop_tombstones: bool,
    index_user_keys: Optional[Callable[[FileMetaData], Optional[list]]] = None,
) -> CompactionPlan:
    """Partition ``task`` into key ranges; see :func:`compaction_boundaries`."""
    boundaries, seals = compaction_boundaries(
        version, task, options, index_user_keys
    )
    return CompactionPlan(
        task=task,
        drop_tombstones=drop_tombstones,
        boundaries=boundaries,
        grandparent_seals=seals,
    )


def group_ranges(
    ranges: list[SubcompactionRange], fanout: int
) -> list[list[SubcompactionRange]]:
    """Contiguous near-even grouping into at most ``fanout`` jobs.

    Grouping affects only which sim process executes a range, never the
    ranges themselves, so any fan-out yields the same outputs.
    """
    jobs = max(1, min(int(fanout), len(ranges)))
    groups: list[list[SubcompactionRange]] = []
    start = 0
    for slot in range(jobs):
        size = (len(ranges) - start + (jobs - slot) - 1) // (jobs - slot)
        groups.append(ranges[start:start + size])
        start += size
    return [group for group in groups if group]


class SubcompactionOutput(NamedTuple):
    """One finalized (but not yet installed) output table of a partition."""

    range_index: int
    seq: int
    temp_name: str
    file_size: int
    smallest: bytes
    largest: bytes


class CompactionStats:
    """Counters exported under ``lsm.compaction.{db}`` in the registry."""

    def __init__(self) -> None:
        self.subcompactions = 0       #: key-range partitions executed
        self.parallel_compactions = 0  #: compactions via the partitioned path
        self.planned_boundaries = 0
        self.grandparent_seals = 0    #: boundaries forced by the overlap cap
        self.sub_input_bytes = 0
        self.sub_output_bytes = 0
        self.pipelined_chunks = 0
        self.pipelined_bytes = 0
        self.pipeline_stall_time = 0.0  #: producer blocked on backpressure
        self.slowdown_writes = 0      #: foreground writes delayed
        self.stop_writes = 0          #: foreground writes parked at the cliff
        self.stall_time = 0.0
        self.pacer_adjustments = 0
        self.pacer_delay_time = 0.0
        self.pacer_rate = 0.0         #: current compaction limiter bytes/s
        self.pacer_fanout = 1

    def snapshot(self) -> dict:
        return dict(self.__dict__)


#: queue bound of the real-Env flush pipeline (``DB._flush_job``)
FLUSH_PIPELINE_BYTES = 8 << 20

#: buffered output bytes per subcompaction before the merge loop blocks
#: on the companion writer process (``DB._run_partitioned``)
COMPACTION_PIPELINE_BYTES = 1 << 20

#: a writer thread starts once a file has buffered this much (smaller
#: files are written inline, in one write at ``sync``), then takes its
#: work in batches of this size
_BATCH_BYTES = 1 << 20

#: the writer thread syncs every this many bytes (RocksDB's
#: ``bytes_per_sync``), so the closing fsync covers only the tail
_WRITEBACK_BYTES = 8 << 20


class PipelinedTableFile:
    """Write-behind wrapper overlapping table build with its I/O.

    The producer (block building, checksumming, modeled CPU charges)
    hands appends to a writer that performs the actual writes, bounded
    by ``limit`` buffered bytes of backpressure.  Single producer;
    order-preserving — the byte stream reaching the underlying file is
    exactly the append sequence, so pipelining moves *when* bytes land,
    never *what* bytes.  ``sync``/``close`` quiesce the queue first,
    keeping durability points unchanged.  A writer-side failure is
    re-raised on the producer at its next call, like any inline append
    failure, and by every later call except ``close``, which raises it
    only if no call has yet.  ``close`` always retires the writer and
    closes ``dest``.

    The writer depends on where the producer runs:

    - under a sim ``engine`` it is a companion sim process, so merge CPU
      overlaps simulated I/O;
    - with no engine it is a real thread, started lazily once a batch
      of ``_BATCH_BYTES`` is buffered (a smaller file is written inline
      at its first ``flush``/``sync``/``close``).  It takes whole
      batches and syncs ``dest`` every ``_WRITEBACK_BYTES``; ``writev``
      and ``fsync`` release the GIL, so the I/O overlaps the producer's
      Python;
    - with ``limit`` 0 every call passes straight through.

    Queued chunks are held by reference and reach ``dest`` through
    ``append_owned``; a non-owned chunk that is not ``bytes`` is copied
    first, because callers reuse scratch buffers.
    """

    def __init__(
        self,
        dest,
        engine=None,
        limit: int = 1 << 20,
        cpu_charge: Optional[Callable[[int, str], None]] = None,
        stats: Optional[CompactionStats] = None,
    ) -> None:
        self._dest = dest
        self._engine = engine if limit > 0 else None
        self._inline = limit <= 0
        self._limit = int(limit)
        self._batch = min(_BATCH_BYTES, self._limit)
        self._cpu_charge = cpu_charge
        self._stats = stats
        self._chunks: deque = deque()
        self._buffered = 0        # queued + in-flight bytes
        self._queued = 0          # bytes in _chunks (thread writer)
        self._busy = False        # thread writer holds a batch
        self._draining = False    # producer waits for the thread writer
        self._writer = None       # sim process or thread, once started
        self._data_gate = None    # writer parked waiting for data
        self._space_gate = None   # producer parked on backpressure
        self._idle_gate = None    # producer parked in quiesce
        self._cond = threading.Condition()  # thread writer only
        self._closing = False
        self._error: Optional[BaseException] = None   # sticky
        self._reported = False    # _error has reached the producer

    # -- producer side ---------------------------------------------------

    def append(self, data) -> None:
        self._push(data, owned=False)

    def append_owned(self, data) -> None:
        self._push(data, owned=True)

    def _push(self, data, owned: bool) -> None:
        if self._error is not None:
            self._check_error()
        if self._cpu_charge is not None:
            # Block build + CRC cost, charged on the producer so it
            # overlaps the writer process's in-flight I/O.
            self._cpu_charge(len(data), "compaction-block")
        if self._inline:
            if owned:
                self._dest.append_owned(data)
            else:
                self._dest.append(data)
            return
        if not owned and type(data) is not bytes:
            data = bytes(data)
        if self._stats is not None:
            self._stats.pipelined_chunks += 1
            self._stats.pipelined_bytes += len(data)
        if self._engine is None:
            self._push_thread(data)
        else:
            self._push_sim(data)

    def _push_sim(self, data) -> None:
        self._chunks.append(data)
        self._buffered += len(data)
        if self._writer is None:
            self._writer = self._engine.spawn(
                self._drain, name="compaction-pipe", daemon=True
            )
        elif self._data_gate is not None:
            gate, self._data_gate = self._data_gate, None
            gate.succeed()
        from repro import sim

        while self._buffered > self._limit and self._error is None:
            self._space_gate = sim.Event(self._engine, name="pipe-space")
            start = sim.now()
            sim.wait(self._space_gate)
            if self._stats is not None:
                self._stats.pipeline_stall_time += sim.now() - start
        self._check_error()

    def _push_thread(self, data) -> None:
        if self._writer is None and self._buffered + len(data) < self._batch:
            # No writer yet, so no other thread touches the queue.
            self._chunks.append(data)
            self._buffered += len(data)
            self._queued += len(data)
            return
        cond = self._cond
        with cond:
            self._chunks.append(data)
            self._buffered += len(data)
            self._queued += len(data)
            if self._writer is None:
                self._writer = threading.Thread(
                    target=self._drain_thread, name="lsm-table-writer",
                    daemon=True,
                )
                self._writer.start()
            elif self._queued - len(data) < self._batch <= self._queued:
                cond.notify_all()  # a batch is ready for the parked writer
            while self._buffered > self._limit and self._error is None:
                cond.wait()
        self._check_error()

    def flush(self) -> None:
        self._quiesce()
        self._check_error()
        self._dest.flush()

    def sync(self) -> None:
        self._quiesce()
        self._check_error()
        self._dest.sync()

    def close(self) -> None:
        """Quiesce, then always retire the writer and close ``dest``.

        A writer error no call has raised yet is raised after ``dest`` is
        closed.
        """
        self._closing = True
        try:
            self._quiesce()
            if not self._reported:
                self._check_error()
        finally:
            try:
                self._stop_writer()
            finally:
                self._dest.close()

    def _quiesce(self) -> None:
        if self._inline:
            return
        if self._engine is not None:
            from repro import sim

            while self._buffered > 0 and self._error is None:
                self._idle_gate = sim.Event(self._engine, name="pipe-idle")
                sim.wait(self._idle_gate)
        elif self._writer is None:
            # Never started: a small file, written inline in one go.
            chunks, self._chunks = self._chunks, deque()
            self._buffered = 0
            for data in chunks:
                self._dest.append_owned(data)
        else:
            with self._cond:
                # Let the writer take a short tail, then wait until it is idle.
                self._draining = True
                self._cond.notify_all()
                while (self._chunks or self._busy) and self._error is None:
                    self._cond.wait()
                self._draining = False

    def _stop_writer(self) -> None:
        if self._engine is not None:
            if self._data_gate is not None:
                # Release the parked writer so it observes _closing and exits.
                gate, self._data_gate = self._data_gate, None
                gate.succeed()
        elif self._writer is not None:
            with self._cond:
                self._cond.notify_all()  # the writer sees _closing and exits
            self._writer.join()

    def _check_error(self) -> None:
        if self._error is not None:
            self._reported = True
            raise self._error

    # -- writer thread (no engine) ---------------------------------------

    def _drain_thread(self) -> None:
        cond, dest = self._cond, self._dest
        total = 0                       # bytes handed to dest so far
        next_sync = _WRITEBACK_BYTES    # write back at every multiple
        while True:
            with cond:
                while not (
                    self._queued >= self._batch
                    or self._closing
                    or (self._draining and self._chunks)
                ):
                    cond.wait()
                if not self._chunks:
                    return  # closing
                batch, self._chunks = self._chunks, deque()
                self._queued = 0
                self._busy = True
            done = 0                    # bytes of this batch not yet released
            try:
                for data in batch:
                    dest.append_owned(data)
                    done += len(data)
                    total += len(data)
                    if total >= next_sync:
                        # Sync points depend only on the append sequence,
                        # never on how the queue happened to be batched.
                        self._release(done)
                        done = 0
                        dest.sync()
                        while next_sync <= total:
                            next_sync += _WRITEBACK_BYTES
                    elif done >= self._batch:
                        self._release(done)
                        done = 0
                self._release(done)
            except BaseException as exc:  # re-raised on the producer
                with cond:
                    self._error = exc
                    self._busy = False
                    cond.notify_all()
                return
            with cond:
                self._busy = False
                cond.notify_all()

    def _release(self, nbytes: int) -> None:
        """Free ``nbytes`` of queue space for the producer."""
        with self._cond:
            self._buffered -= nbytes
            self._cond.notify_all()

    # -- companion writer process (sim engine) ---------------------------

    def _drain(self) -> None:
        from repro import sim

        while True:
            while self._chunks:
                data = self._chunks.popleft()
                try:
                    self._dest.append_owned(data)
                except BaseException as exc:
                    self._error = exc
                    self._chunks.clear()
                    self._buffered = 0
                    self._wake_producer()
                    return
                self._buffered -= len(data)
                if self._space_gate is not None and self._buffered <= self._limit:
                    gate, self._space_gate = self._space_gate, None
                    gate.succeed()
            if self._buffered == 0 and self._idle_gate is not None:
                gate, self._idle_gate = self._idle_gate, None
                gate.succeed()
            if self._closing:
                return
            self._data_gate = sim.Event(self._engine, name="pipe-data")
            sim.wait(self._data_gate)

    def _wake_producer(self) -> None:
        for attr in ("_space_gate", "_idle_gate"):
            gate = getattr(self, attr)
            if gate is not None:
                setattr(self, attr, None)
                gate.succeed()


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class CompactionExecutor:
    """Runs a :class:`CompactionTask`: merge inputs → new tables → edit.

    Collaborators are injected as callables so this module stays free of
    DB internals:

    - ``open_table_iter(meta)`` → iterator of (internal key, value);
    - ``new_table_writer()`` → (file_number, TableBuilder-like, finalize)
      where ``finalize(builder)`` closes the file and returns its size;
    - ``open_table_seek(meta, lo_ikey)`` (optional) → iterator starting
      at ``lo_ikey`` — lets a key-range partition read only the blocks
      it covers instead of scanning each input from the top;
    - ``new_range_writer(range_index, output_seq)`` (optional) →
      (temp_name, builder, finalize): a *deferred-number* output used by
      subcompactions, renamed into place at install time so file numbers
      are assigned in key order regardless of execution order.
    """

    def __init__(
        self,
        options: Options,
        open_table_iter: Callable,
        new_table_writer: Callable,
        open_table_seek: Optional[Callable] = None,
        new_range_writer: Optional[Callable] = None,
        stats: Optional[CompactionStats] = None,
    ):
        self._options = options
        self._open_table_iter = open_table_iter
        self._new_table_writer = new_table_writer
        self._open_table_seek = open_table_seek
        self._new_range_writer = new_range_writer
        self._stats = stats

    def _input_streams(
        self,
        task: CompactionTask,
        lo: Optional[bytes] = None,
        hi: Optional[bytes] = None,
    ) -> list:
        """Input streams newest-to-oldest, restricted to [lo, hi).

        L0 files by descending file number, then the target level files
        (older than any L0).  Files wholly outside the range are skipped;
        partially-overlapping files seek to ``lo`` when the collaborator
        supports it (falling back to a full scan plus filtering).
        """
        metas = sorted(
            task.inputs[0], key=lambda f: f.number, reverse=(task.level == 0)
        ) + list(task.inputs[1])
        streams = []
        for meta in metas:
            if lo is not None and meta.largest_user_key < lo:
                continue
            if hi is not None and meta.smallest_user_key >= hi:
                continue
            if (
                lo is not None
                and self._open_table_seek is not None
                and meta.smallest_user_key < lo
            ):
                streams.append(
                    self._open_table_seek(meta, seek_key(lo, MAX_SEQUENCE))
                )
            else:
                streams.append(self._open_table_iter(meta))
        return streams

    def _merge_outputs(
        self,
        streams: list,
        drop_tombstones: bool,
        boundaries: Iterable[bytes],
        lo: Optional[bytes],
        hi: Optional[bytes],
        make_writer: Callable,
        emit: Callable,
    ) -> None:
        """The merge loop shared by the serial and partitioned paths.

        Rolls the output at every user key in ``boundaries`` (hard,
        fan-out independent) and additionally at ``target_file_size_base``
        (which both paths reach at identical points because they see
        identical entry sequences per segment).
        """
        merged = MergingIterator(streams)
        pending = deque(boundaries)
        builder = None
        finalize = None
        token = None

        def roll_output() -> None:
            nonlocal builder, finalize, token
            if builder is None or builder.num_entries == 0:
                return
            size = finalize(builder)
            emit(token, size, builder.first_key, builder.last_key)
            builder = None
            finalize = None
            token = None

        for user_key, seq, value, vtype in collapse_internal_entries(
            merged, drop_tombstones=drop_tombstones
        ):
            if lo is not None and user_key < lo:
                continue
            if hi is not None and user_key >= hi:
                break
            while pending and user_key >= pending[0]:
                pending.popleft()
                roll_output()
            if builder is None:
                token, builder, finalize = make_writer()
            builder.add(encode_internal_key(user_key, seq, vtype), value)
            if builder.file_size >= self._options.target_file_size_base:
                roll_output()
        roll_output()

    def run(
        self,
        task: CompactionTask,
        drop_tombstones: bool,
        boundaries: Iterable[bytes] = (),
    ) -> VersionEdit:
        """Execute the serial merge; returns the edit to apply.

        ``boundaries`` (optional) forces output rolls at those user keys
        — passing a plan's boundaries makes this the serial reference
        for the partitioned execution.
        """
        edit = VersionEdit()

        def emit(number, size, first_key, last_key) -> None:
            edit.add_file(
                task.target_level,
                FileMetaData(
                    number=number,
                    file_size=size,
                    smallest=first_key,
                    largest=last_key,
                ),
            )

        self._merge_outputs(
            self._input_streams(task),
            drop_tombstones,
            boundaries,
            lo=None,
            hi=None,
            make_writer=self._new_table_writer,
            emit=emit,
        )

        for meta in task.inputs[0]:
            edit.delete_file(task.level, meta.number)
        for meta in task.inputs[1]:
            edit.delete_file(task.target_level, meta.number)
        return edit

    def run_range(
        self,
        task: CompactionTask,
        rng: SubcompactionRange,
        drop_tombstones: bool,
    ) -> list[SubcompactionOutput]:
        """Execute one key-range partition; outputs stay as temp files.

        The caller installs all partitions atomically (numbering + rename
        in key order) once every range has finished.
        """
        if self._new_range_writer is None:
            raise RuntimeError("executor lacks a new_range_writer collaborator")
        outputs: list[SubcompactionOutput] = []

        def make_writer():
            return self._new_range_writer(rng.index, len(outputs))

        def emit(temp_name, size, first_key, last_key) -> None:
            outputs.append(
                SubcompactionOutput(
                    range_index=rng.index,
                    seq=len(outputs),
                    temp_name=temp_name,
                    file_size=size,
                    smallest=first_key,
                    largest=last_key,
                )
            )

        self._merge_outputs(
            self._input_streams(task, rng.lo, rng.hi),
            drop_tombstones,
            boundaries=(),
            lo=rng.lo,
            hi=rng.hi,
            make_writer=make_writer,
            emit=emit,
        )
        if self._stats is not None:
            self._stats.subcompactions += 1
        return outputs


__all__ = [
    "CompactionExecutor",
    "CompactionPlan",
    "CompactionStats",
    "CompactionTask",
    "PipelinedTableFile",
    "SubcompactionOutput",
    "SubcompactionRange",
    "compaction_boundaries",
    "group_ranges",
    "is_bottommost",
    "level_score",
    "pick_compaction",
    "plan_compaction",
]
