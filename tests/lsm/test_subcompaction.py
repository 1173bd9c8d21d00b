"""Partitioned subcompactions: planning, pipelining, byte-identity.

The load-bearing invariant pinned here: partition boundaries are
fan-out independent and both execution paths roll output files at the
same hard boundaries, so a parallel compaction produces **byte-identical
SSTables and manifest state** to the serial merge — parallelism moves
*when* bytes are produced, never *what* bytes.
"""

import os
import random
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sim
from repro.lsm import DB, Options
from repro.lsm.compaction import (
    FLUSH_PIPELINE_BYTES,
    CompactionExecutor,
    CompactionTask,
    PipelinedTableFile,
    compaction_boundaries,
    group_ranges,
    plan_compaction,
)
from repro.lsm.dbformat import ValueType, encode_internal_key
from repro.lsm.env import LocalFsEnv, MemEnv
from repro.lsm.manifest import FileMetaData, Version, VersionEdit
from repro.pfs import LustreClient, LustreCluster, SimLustreEnv
from repro.pfs.configs import small_test_cluster
from repro.sim.executor import SimExecutor


def ikey(user_key: bytes, seq: int, vtype: ValueType = ValueType.VALUE) -> bytes:
    return encode_internal_key(user_key, seq, vtype)


def make_meta(number: int, entries) -> FileMetaData:
    keys = [k for k, _ in entries]
    return FileMetaData(
        number=number,
        file_size=sum(len(k) + len(v) for k, v in entries),
        smallest=min(keys),
        largest=max(keys),
    )


class FakeBuilder:
    def __init__(self):
        self.entries = []
        self.first_key = None
        self.last_key = None
        self.file_size = 0
        self.num_entries = 0

    def add(self, key: bytes, value: bytes) -> None:
        if self.first_key is None:
            self.first_key = key
        self.last_key = key
        self.entries.append((key, value))
        self.num_entries += 1
        self.file_size += len(key) + len(value)


class Harness:
    """CompactionExecutor over in-memory tables, with range writers."""

    def __init__(self, options=None):
        self.tables = {}
        self.outputs = []       # (token, FakeBuilder) in finalize order
        self._next_number = 100
        self.executor = CompactionExecutor(
            options or Options(),
            open_table_iter=lambda m: iter(self.tables[m.number]),
            new_table_writer=self._new_writer,
            new_range_writer=self._new_range_writer,
        )

    def add_table(self, number: int, entries) -> FileMetaData:
        self.tables[number] = list(entries)
        return make_meta(number, entries)

    def _new_writer(self):
        number = self._next_number
        self._next_number += 1
        builder = FakeBuilder()

        def finalize(b):
            self.outputs.append((number, b))
            return b.file_size

        return number, builder, finalize

    def _new_range_writer(self, range_index, output_seq):
        temp = f"tmp-{range_index}-{output_seq}"
        builder = FakeBuilder()

        def finalize(b):
            self.outputs.append((temp, b))
            return b.file_size

        return temp, builder, finalize


def _seeded_task(harness, per_file=8, files=4):
    """Overlapping inputs with interleaved keys across ``files`` tables."""
    inputs0, inputs1 = [], []
    number = 1
    for index in range(files):
        entries = [
            (ikey(f"k{i:04d}".encode(), 100 + number), b"v" * 16)
            for i in range(index, per_file * files, files)
        ]
        meta = harness.add_table(number, entries)
        (inputs0 if index % 2 == 0 else inputs1).append(meta)
        number += 1
    return CompactionTask(level=0, inputs=[inputs0, inputs1])


class TestPlanning:
    def test_no_boundaries_when_small(self):
        harness = Harness()
        task = _seeded_task(harness)
        version = Version(num_levels=7)
        options = Options()  # 64M target; the task is tiny
        boundaries, seals = compaction_boundaries(version, task, options)
        assert boundaries == ()
        assert seals == 0

    def test_boundaries_ascending_and_interior(self):
        harness = Harness()
        task = _seeded_task(harness)
        version = Version(num_levels=7)
        options = Options(target_file_size_base=128)
        boundaries, _ = compaction_boundaries(version, task, options)
        assert boundaries, "small target must partition this task"
        lo = min(f.smallest_user_key for f in task.all_inputs())
        hi = max(f.largest_user_key for f in task.all_inputs())
        assert list(boundaries) == sorted(set(boundaries))
        for boundary in boundaries:
            assert lo < boundary < hi

    def test_boundaries_use_index_keys_when_available(self):
        harness = Harness()
        task = _seeded_task(harness)
        version = Version(num_levels=7)
        options = Options(target_file_size_base=128)
        coarse, _ = compaction_boundaries(version, task, options)
        index_keys = {
            meta.number: [
                entry[0][:-8] for entry in harness.tables[meta.number]
            ]
            for meta in task.all_inputs()
        }
        fine, _ = compaction_boundaries(
            version, task, options,
            index_user_keys=lambda m: index_keys[m.number],
        )
        # Per-block separators give strictly more candidates than the
        # one-per-file fallback, so the split is at least as fine.
        assert len(fine) >= len(coarse)

    def test_grandparent_cap_seals_outputs(self):
        harness = Harness()
        task = _seeded_task(harness)
        version = Version(num_levels=7)
        # Grandparent files at target_level + 1 = 2, each heavy enough
        # that passing one immediately exceeds the overlap cap.
        for number, (lo, hi) in enumerate(
            [(b"k0002", b"k0008"), (b"k0010", b"k0018")], start=50
        ):
            version.files[2].append(
                FileMetaData(
                    number=number, file_size=10_000,
                    smallest=ikey(lo, 1), largest=ikey(hi, 1),
                )
            )
        # Size roll can't plausibly fire (the task is ~0.9K of estimate
        # against an 800-byte target consumed in ~300-byte segments), so
        # every boundary that appears is the overlap cap's doing.
        options = Options(
            target_file_size_base=800,
            max_grandparent_overlap_bytes=1_000,
        )
        index_keys = {
            meta.number: [
                entry[0][:-8] for entry in harness.tables[meta.number]
            ]
            for meta in task.all_inputs()
        }
        boundaries, seals = compaction_boundaries(
            version, task, options,
            index_user_keys=lambda m: index_keys[m.number],
        )
        assert seals > 0
        assert boundaries

    def test_plan_ranges_cover_key_space(self):
        harness = Harness()
        task = _seeded_task(harness)
        plan = plan_compaction(
            Version(num_levels=7), task,
            Options(target_file_size_base=128), drop_tombstones=True,
        )
        ranges = plan.ranges
        assert ranges[0].lo is None and ranges[-1].hi is None
        for left, right in zip(ranges, ranges[1:]):
            assert left.hi == right.lo


class TestGroupRanges:
    def test_contiguous_cover(self):
        plan = plan_compaction(
            Version(num_levels=7),
            _seeded_task(Harness()),
            Options(target_file_size_base=128),
            drop_tombstones=True,
        )
        ranges = plan.ranges
        for fanout in (1, 2, 3, len(ranges), len(ranges) + 5):
            groups = group_ranges(ranges, fanout)
            assert len(groups) == min(fanout, len(ranges))
            flattened = [rng for group in groups for rng in group]
            assert flattened == ranges


class TestSerialEquivalence:
    """run() with a plan's boundaries == concatenated run_range outputs."""

    @pytest.mark.parametrize("drop_tombstones", [False, True])
    def test_partitioned_outputs_match_serial(self, drop_tombstones):
        options = Options(target_file_size_base=128)
        serial = Harness(options)
        task_s = _seeded_task(serial)
        # A tombstone in the middle exercises drop semantics across a
        # partition boundary.
        serial.tables[1][3] = (
            ikey(serial.tables[1][3][0][:-8], 500, ValueType.DELETE), b""
        )
        index_keys = {
            meta.number: [
                entry[0][:-8] for entry in serial.tables[meta.number]
            ]
            for meta in task_s.all_inputs()
        }
        plan = plan_compaction(
            Version(num_levels=7), task_s, options, drop_tombstones,
            index_user_keys=lambda m: index_keys[m.number],
        )
        assert plan.boundaries
        serial.executor.run(
            task_s, drop_tombstones, boundaries=plan.boundaries
        )
        serial_outputs = [b.entries for _, b in serial.outputs]

        parallel = Harness(options)
        task_p = _seeded_task(parallel)
        parallel.tables[1][3] = serial.tables[1][3]
        partitioned_outputs = []
        for rng in plan.ranges:
            parallel.outputs.clear()
            parallel.executor.run_range(task_p, rng, drop_tombstones)
            partitioned_outputs.extend(
                b.entries for _, b in parallel.outputs
            )
        assert partitioned_outputs == serial_outputs


class TestMergedVersionEdit:
    def test_merge_preserves_order_and_dedupes_deletes(self):
        meta_a = make_meta(10, [(ikey(b"a", 1), b"x")])
        meta_b = make_meta(11, [(ikey(b"b", 1), b"x")])
        first, second = VersionEdit(), VersionEdit()
        first.add_file(1, meta_a)
        first.delete_file(0, 3)
        second.add_file(1, meta_b)
        second.delete_file(0, 3)
        second.delete_file(0, 4)
        merged = VersionEdit.merged([first, second])
        assert [m.number for _, m in merged.new_files] == [10, 11]
        assert merged.deleted_files == [(0, 3), (0, 4)]

    def test_merge_rejects_conflicting_scalars(self):
        first = VersionEdit(log_number=5)
        second = VersionEdit(log_number=6)
        with pytest.raises(ValueError):
            VersionEdit.merged([first, second])
        # Matching scalars pass through.
        merged = VersionEdit.merged(
            [VersionEdit(log_number=5), VersionEdit(log_number=5)]
        )
        assert merged.log_number == 5


class TestPipelinedTableFile:
    class SlowDest:
        def __init__(self, fail_at=None):
            self.data = bytearray()
            self.closed = False
            self._count = 0
            self._fail_at = fail_at

        def append(self, data):
            self._count += 1
            if self._fail_at is not None and self._count >= self._fail_at:
                raise IOError("device gone")
            sim.sleep(1e-3)
            self.data += data

        def append_owned(self, data):
            self.append(data)

        def flush(self):
            pass

        def sync(self):
            pass

        def close(self):
            self.closed = True

    def test_order_preserving_with_backpressure(self):
        from repro.lsm.compaction import CompactionStats

        stats = CompactionStats()
        with sim.Engine() as engine:

            def main():
                dest = self.SlowDest()
                pipe = PipelinedTableFile(
                    dest, engine=engine, limit=2048, stats=stats
                )
                expect = bytearray()
                for i in range(10):
                    chunk = bytes([i]) * 1024
                    pipe.append(chunk)
                    expect += chunk
                pipe.sync()
                pipe.close()
                assert dest.closed
                assert bytes(dest.data) == bytes(expect)

            engine.spawn(main)
            engine.run()
        assert stats.pipelined_chunks == 10
        assert stats.pipelined_bytes == 10 * 1024
        assert stats.pipeline_stall_time > 0  # 10K through a 2K window

    def test_writer_error_reaches_producer(self):
        with sim.Engine() as engine:

            def main():
                dest = self.SlowDest(fail_at=2)
                pipe = PipelinedTableFile(dest, engine=engine, limit=1024)
                with pytest.raises(IOError):
                    for i in range(10):
                        pipe.append(bytes([i]) * 1024)
                    pipe.close()
                # The error is still queued when close() runs: it is
                # raised there, and dest is closed all the same.
                dest = self.SlowDest(fail_at=2)
                pipe = PipelinedTableFile(dest, engine=engine, limit=1 << 20)
                for i in range(3):
                    pipe.append(bytes([i]) * 1024)
                with pytest.raises(IOError):
                    pipe.close()
                assert dest.closed

            proc = engine.spawn(main)
            engine.run()
            assert proc.error is None

    def test_passthrough_without_engine(self):
        dest = self.SlowDest()
        dest.append = lambda data: dest.data.extend(data)  # no sim.sleep
        pipe = PipelinedTableFile(dest, engine=None, limit=1024)
        pipe.append(b"abc")
        pipe.append_owned(bytearray(b"def"))
        pipe.close()
        assert bytes(dest.data) == b"abcdef"


_CHUNK_SIZES = st.one_of(
    st.integers(0, 64), st.integers(0, 64 << 10), st.integers(512 << 10, 3 << 20)
)
_PIPE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["append", "append_owned"]),
            _CHUNK_SIZES,
            st.sampled_from([bytes, bytearray, memoryview]),
        ),
        st.sampled_from([("flush",), ("sync",)]),
    ),
    max_size=14,
)


class TestPipelinedTableFileThread:
    """The writer thread used when no sim engine is present."""

    class MemDest:
        def __init__(self, fail_at=None):
            self.data = bytearray()
            self.appends = 0
            self.syncs = 0
            self.closed = False
            self._fail_at = fail_at

        def append(self, data):
            self.appends += 1
            if self.appends == self._fail_at:
                raise IOError("device gone")
            self.data += data

        def append_owned(self, data):
            self.append(data)

        def flush(self):
            pass

        def sync(self):
            self.syncs += 1

        def close(self):
            self.closed = True

    @settings(max_examples=25, deadline=None)
    @given(
        ops=_PIPE_OPS,
        limit=st.sampled_from([0, 64 << 10, 1 << 20, FLUSH_PIPELINE_BYTES]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_equal_plain_concatenation(self, ops, limit, seed):
        rng = random.Random(seed)
        expect = bytearray()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.sst")
            pipe = PipelinedTableFile(
                LocalFsEnv().new_writable_file(path), limit=limit
            )
            for op in ops:
                if op[0] in ("flush", "sync"):
                    getattr(pipe, op[0])()
                    continue
                name, size, kind = op
                payload = rng.randbytes(size)
                scratch = bytearray(payload)
                chunk = {
                    bytes: payload, bytearray: scratch,
                    memoryview: memoryview(scratch),
                }[kind]
                getattr(pipe, name)(chunk)
                expect += payload
                if name == "append":
                    # Callers reuse scratch buffers right after appending.
                    scratch[:] = b"\xa5" * size
            pipe.sync()
            pipe.close()
            with open(path, "rb") as fh:
                assert fh.read() == bytes(expect)

    @pytest.mark.parametrize("fail_at", [1, 5, 40])
    def test_writer_error_surfaces_once(self, fail_at):
        baseline = threading.active_count()
        dest = self.MemDest(fail_at=fail_at)
        pipe = PipelinedTableFile(dest, limit=2 << 20)
        raised = []
        try:
            for i in range(64):
                pipe.append(bytes([i]) * (256 << 10))
            pipe.sync()
        except IOError as exc:
            raised.append(exc)
        finally:
            try:
                pipe.close()
            except IOError as exc:
                raised.append(exc)
        assert len(raised) == 1
        assert dest.closed
        assert threading.active_count() == baseline

    def test_stress_more_pipelines_than_cores(self):
        """Lost wake-ups or reordering under frequent thread switches."""
        results = {}

        def produce(index):
            rng = random.Random(index)
            dest = self.MemDest()
            pipe = PipelinedTableFile(dest, limit=64 << 10)
            expect = bytearray()
            for _ in range(400):
                chunk = rng.randbytes(rng.randrange(0, 40 << 10))
                pipe.append(chunk)
                expect += chunk
                if rng.random() < 0.02:
                    pipe.sync()
            pipe.close()
            results[index] = dest.data == expect and dest.closed

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            producers = [
                threading.Thread(target=produce, args=(i,)) for i in range(4)
            ]
            for thread in producers:
                thread.start()
            for thread in producers:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == {i: True for i in range(4)}

    def test_small_table_never_starts_the_writer(self):
        baseline = threading.active_count()
        dest = self.MemDest()
        pipe = PipelinedTableFile(dest, limit=FLUSH_PIPELINE_BYTES)
        for i in range(15):
            pipe.append_owned(bytearray([i]) * (64 << 10))
        assert threading.active_count() == baseline
        assert dest.appends == 0  # held until sync: one write there
        pipe.sync()
        pipe.close()
        assert dest.appends == 15 and dest.syncs == 1
        assert dest.data == b"".join(bytes([i]) * (64 << 10) for i in range(15))

    def test_large_table_writes_back_while_building(self):
        baseline = threading.active_count()
        dest = self.MemDest()
        pipe = PipelinedTableFile(dest, limit=FLUSH_PIPELINE_BYTES)
        pipe.append(b"\x01" * (1 << 20))
        assert threading.active_count() == baseline + 1
        for _ in range(24):
            pipe.append(b"\x02" * (1 << 20))
        pipe.sync()
        pipe.close()
        assert threading.active_count() == baseline
        assert len(dest.data) == 25 << 20
        # Write-back every 8 MiB on the writer, plus the closing sync.
        assert dest.syncs == 25 // 8 + 1


class TestByteIdentity:
    """fanout=1 and fanout=N produce identical on-disk state end to end."""

    def _run_workload(self, fanout: int):
        with sim.Engine() as engine:
            cluster = LustreCluster(engine, small_test_cluster())
            client = LustreClient(cluster, 0)
            env = SimLustreEnv(client)

            def main():
                options = Options(
                    write_buffer_size=4 << 10,
                    target_file_size_base=2 << 10,
                    level0_file_num_compaction_trigger=2,
                    # Quiesced protocol: load everything first, then one
                    # manual compaction pass — so the only difference
                    # between runs is the subcompaction fan-out.
                    enable_compaction=False,
                    max_subcompactions=fanout,
                )
                db = DB.open(
                    "db", options=options, env=env,
                    executor=SimExecutor(engine),
                )
                for i in range(96):
                    db.put(f"key{i:04d}".encode(), b"v" * 128)
                db.compact_range()
                shape = db.approximate_level_shape()
                cstats = db.compaction_stats.snapshot()
                db.close()

                files = {}
                for name in sorted(env.get_children("db")):
                    if name == "LOCK":
                        continue
                    path = env.join("db", name)
                    with env.new_sequential_file(path) as fh:
                        files[name] = fh.read(env.file_size(path))
                return shape, cstats, files

            proc = engine.spawn(main)
            engine.run()
            return proc.result

    def test_fanout_is_invisible_in_bytes_and_manifest(self):
        shape1, stats1, files1 = self._run_workload(1)
        shape4, stats4, files4 = self._run_workload(4)
        assert stats1["planned_boundaries"] > 0, (
            "workload must actually partition"
        )
        assert stats1["parallel_compactions"] > 0
        assert stats1["subcompactions"] == stats4["subcompactions"]
        assert shape1 == shape4
        assert sorted(files1) == sorted(files4)
        for name, blob in files1.items():
            assert files4[name] == blob, f"{name} diverged across fan-outs"
        assert not any(name.endswith(".sst.tmp") for name in files1)

    def test_fanout_two_matches_as_well(self):
        _, _, files1 = self._run_workload(1)
        _, _, files2 = self._run_workload(2)
        assert files1 == files2


class TestCrashLeftovers:
    def test_stale_subcompaction_temps_removed_on_reopen(self):
        env = MemEnv()
        db = DB.open("db", options=Options(enable_wal=True), env=env)
        db.put(b"k", b"v")
        db.close()
        stray = env.join("db", "sub-0001-000-000.sst.tmp")
        out = env.new_writable_file(stray)
        out.append(b"partial")
        out.close()
        db = DB.open("db", options=Options(enable_wal=True), env=env)
        try:
            assert not env.file_exists(stray)
            assert db.get(b"k") == b"v"
        finally:
            db.close()
