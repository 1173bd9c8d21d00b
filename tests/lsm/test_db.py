"""End-to-end tests for the DB facade: write/read paths, flush, recovery."""

import pytest

from repro import sim
from repro.errors import (
    ClosedError,
    InvalidArgumentError,
    NotFoundError,
    StorageIOError,
)
from repro.fault import FaultSchedule, FaultyEnv
from repro.lsm import DB, MemEnv, Options, ReadOptions, WriteBatch, WriteOptions
from repro.lsm.executors import ThreadExecutor
from repro.lsm.sstable import Table
from repro.sim.executor import SimExecutor


def _crash(db):
    """Simulate process death: the handle vanishes and the OS releases
    the LOCK file (modeled by releasing the env's in-process token)."""
    db._env.unlock_file(db._db_lock_token)  # noqa: SLF001


@pytest.fixture
def db(tmp_path):
    database = DB.open(str(tmp_path / "db"), Options(write_buffer_size="64K"))
    yield database
    database.close()


def mem_db(**opts):
    defaults = dict(write_buffer_size="32K")
    defaults.update(opts)
    return DB.open("db", Options(**defaults), env=MemEnv())


class TestBasicOps:
    def test_put_get(self, db):
        db.put(b"k", b"v")
        assert db.get(b"k") == b"v"

    def test_get_missing_raises(self, db):
        with pytest.raises(NotFoundError):
            db.get(b"missing")

    def test_overwrite(self, db):
        db.put(b"k", b"1")
        db.put(b"k", b"2")
        assert db.get(b"k") == b"2"

    def test_delete(self, db):
        db.put(b"k", b"v")
        db.delete(b"k")
        with pytest.raises(NotFoundError):
            db.get(b"k")

    def test_delete_missing_is_fine(self, db):
        db.delete(b"never-there")

    def test_append_builds_value(self, db):
        db.append(b"s", b"one")
        db.append(b"s", b"two")
        assert db.get(b"s") == b"onetwo"

    def test_append_after_put(self, db):
        db.put(b"s", b"base")
        db.append(b"s", b"+more")
        assert db.get(b"s") == b"base+more"

    def test_append_after_delete(self, db):
        db.put(b"s", b"old")
        db.delete(b"s")
        db.append(b"s", b"new")
        assert db.get(b"s") == b"new"

    def test_lookup_does_not_bleed_across_user_keys(self, db):
        db.put(b"ka", b"1")
        db.put(b"kb", b"2")
        for _ in range(2):  # from the memtable, then from a table
            assert db.get(b"ka") == b"1"
            assert db.get(b"kb") == b"2"
            with pytest.raises(NotFoundError):
                db.get(b"k")
            db.flush()

    def test_contains(self, db):
        db.put(b"k", b"v")
        assert b"k" in db
        assert b"j" not in db

    def test_empty_value(self, db):
        db.put(b"k", b"")
        assert db.get(b"k") == b""

    def test_binary_keys(self, db):
        key = bytes(range(256))
        db.put(key, b"binary")
        assert db.get(key) == b"binary"

    def test_atomic_batch(self, db):
        batch = WriteBatch()
        batch.put(b"a", b"1")
        batch.put(b"b", b"2")
        batch.delete(b"a")
        db.write(batch)
        assert b"a" not in db
        assert db.get(b"b") == b"2"

    def test_empty_batch_noop(self, db):
        db.write(WriteBatch())

    def test_open_requires_classmethod(self):
        with pytest.raises(TypeError):
            DB()


class TestFlushAndLevels:
    def test_explicit_flush_creates_l0(self):
        db = mem_db()
        db.put(b"k", b"v")
        db.flush()
        files, _ = db.approximate_level_shape()[0]
        assert files == 1
        assert db.get(b"k") == b"v"
        db.close()

    def test_auto_flush_on_buffer_full(self):
        db = mem_db(write_buffer_size="8K", enable_compaction=False)
        for i in range(64):
            db.put(f"key{i:03d}".encode(), bytes(512))
        shape = db.approximate_level_shape()
        assert shape[0][0] >= 2  # several L0 files from auto-flushes
        db.close()

    def test_reads_span_mem_and_tables(self):
        db = mem_db()
        db.put(b"flushed", b"1")
        db.flush()
        db.put(b"buffered", b"2")
        assert db.get(b"flushed") == b"1"
        assert db.get(b"buffered") == b"2"
        db.close()

    def test_append_across_flush_boundary(self):
        db = mem_db(enable_compaction=False)
        db.append(b"s", b"part1")
        db.flush()
        db.append(b"s", b"part2")
        db.flush()
        db.append(b"s", b"part3")
        assert db.get(b"s") == b"part1part2part3"
        db.close()

    def test_delete_shadows_flushed_value(self):
        db = mem_db()
        db.put(b"k", b"v")
        db.flush()
        db.delete(b"k")
        with pytest.raises(NotFoundError):
            db.get(b"k")
        db.flush()
        with pytest.raises(NotFoundError):
            db.get(b"k")
        db.close()

    def test_flush_stats(self):
        db = mem_db()
        db.put(b"k", b"v" * 1000)
        db.flush()
        assert db.stats.memtable_flushes == 1
        assert db.stats.flushed_bytes > 1000
        db.close()


class TestPointReadPath:
    def test_memtable_merge_chain_over_flushed_base(self):
        db = mem_db(enable_compaction=False)
        db.put(b"k", b"base")
        db.flush()
        db.append(b"k", b"-a")
        db.append(b"k", b"-b")
        snap = db.snapshot()
        db.append(b"k", b"-c")
        assert db.get(b"k") == b"base-a-b-c"
        assert db.get(b"k", ReadOptions(snapshot=snap)) == b"base-a-b"
        snap.release()
        db.close()

    def test_tables_probed_newest_first_until_the_chain_ends(self, monkeypatch):
        db = mem_db(enable_compaction=False)
        for batch in (
            [(b"k", b"ancient")],
            [(b"a", b""), (b"k", b"base")],
            [(b"i", b""), (b"m", b"")],  # spans k; the bloom filter rules it out
        ):
            for key, value in batch:
                db.put(key, value)
            db.flush()
        db.append(b"k", b"-a")
        db.flush()
        db.append(b"k", b"-b")
        events = []
        may_contain, seek = Table.may_contain, Table.seek

        def probe(table, key):
            found = may_contain(table, key)
            events.append(("bloom", table._file_number, found))
            return found

        def record_seek(table, target, read_options=None):
            events.append(("seek", table._file_number))
            return seek(table, target, read_options)

        monkeypatch.setattr(Table, "may_contain", probe)
        monkeypatch.setattr(Table, "seek", record_seek)
        oldest, base, spans, appended = sorted(
            meta.number for meta in db._versions.current.files[0]
        )
        assert db.get(b"k") == b"base-a-b"
        assert events == [
            ("bloom", appended, True),
            ("seek", appended),
            ("bloom", spans, False),
            ("bloom", base, True),
            ("seek", base),
        ]
        events.clear()
        db.put(b"k", b"fresh")
        assert db.get(b"k") == b"fresh"
        assert events == []  # answered by the memtable alone
        db.close()


class TestCompaction:
    def test_compaction_reduces_l0(self):
        db = mem_db(write_buffer_size="4K", level0_file_num_compaction_trigger=4)
        for i in range(200):
            db.put(f"key{i:04d}".encode(), bytes(256))
        db.compact_range()
        shape = db.approximate_level_shape()
        assert shape[0][0] < 4
        assert sum(files for files, _ in shape[1:]) >= 1
        # All data still visible.
        for i in range(200):
            assert db.get(f"key{i:04d}".encode()) == bytes(256)
        db.close()

    def test_compaction_disabled_accumulates_l0(self):
        db = mem_db(write_buffer_size="4K", enable_compaction=False)
        for i in range(200):
            db.put(f"key{i:04d}".encode(), bytes(256))
        db.flush()
        shape = db.approximate_level_shape()
        assert shape[0][0] > 4
        assert all(files == 0 for files, _ in shape[1:])
        db.close()

    def test_compaction_drops_shadowed_data(self):
        db = mem_db(write_buffer_size="4K")
        for round_ in range(5):
            for i in range(50):
                db.put(f"key{i:03d}".encode(), f"round{round_}".encode() * 20)
        db.compact_range()
        for i in range(50):
            assert db.get(f"key{i:03d}".encode()) == b"round4" * 20
        db.close()

    def test_compaction_folds_appends(self):
        db = mem_db(write_buffer_size="4K")
        expected = b""
        for i in range(100):
            chunk = f"c{i:03d}".encode() * 16
            db.append(b"stream", chunk)
            expected += chunk
        db.compact_range()
        assert db.get(b"stream") == expected
        db.close()

    def test_tombstones_removed_at_bottom(self):
        db = mem_db(write_buffer_size="4K")
        for i in range(100):
            db.put(f"key{i:03d}".encode(), bytes(128))
        for i in range(100):
            db.delete(f"key{i:03d}".encode())
        db.compact_range()
        shape = db.approximate_level_shape()
        assert sum(nbytes for _, nbytes in shape) < 4096  # only table overhead
        db.close()


class TestIteration:
    def test_full_scan_sorted(self, db):
        keys = [f"key{i:02d}".encode() for i in (5, 1, 9, 3)]
        for key in keys:
            db.put(key, key.upper())
        scanned = [k for k, _ in db.iterate()]
        assert scanned == sorted(keys)

    def test_range_scan_inclusive(self, db):
        for i in range(10):
            db.put(f"k{i}".encode(), b"")
        out = [k for k, _ in db.iterate(b"k3", b"k6")]
        assert out == [b"k3", b"k4", b"k5", b"k6"]

    def test_scan_spans_memtable_and_sst(self):
        db = mem_db(enable_compaction=False)
        db.put(b"a", b"1")
        db.flush()
        db.put(b"b", b"2")
        assert [(k, v) for k, v in db.iterate()] == [(b"a", b"1"), (b"b", b"2")]
        db.close()

    def test_scan_sees_newest_version(self):
        db = mem_db(enable_compaction=False)
        db.put(b"k", b"old")
        db.flush()
        db.put(b"k", b"new")
        assert list(db.iterate()) == [(b"k", b"new")]
        db.close()

    def test_scan_hides_deleted(self):
        db = mem_db()
        db.put(b"a", b"1")
        db.put(b"b", b"2")
        db.flush()
        db.delete(b"a")
        assert list(db.iterate()) == [(b"b", b"2")]
        db.close()

    def test_scan_applies_appends(self):
        db = mem_db(enable_compaction=False)
        db.append(b"s", b"x")
        db.flush()
        db.append(b"s", b"y")
        assert list(db.iterate()) == [(b"s", b"xy")]
        db.close()

    def test_scan_across_levels(self):
        db = mem_db(write_buffer_size="4K")
        for i in range(150):
            db.put(f"key{i:04d}".encode(), b"v")
        db.compact_range()
        db.put(b"key0000", b"updated")
        scanned = dict(db.iterate())
        assert len(scanned) == 150
        assert scanned[b"key0000"] == b"updated"
        db.close()


class TestRecovery:
    def test_wal_replay_after_unclean_shutdown(self, tmp_path):
        path = str(tmp_path / "db")
        db = DB.open(path, Options())
        db.put(b"durable", b"yes")
        db.append(b"s", b"1")
        db.append(b"s", b"2")
        # Simulate crash: no flush/close (drop the handle without close).
        db._wal.sync()  # noqa: SLF001 — data must reach the OS for replay
        _crash(db)

        db2 = DB.open(path, Options())
        assert db2.get(b"durable") == b"yes"
        assert db2.get(b"s") == b"12"
        db2.close()

    def test_clean_close_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        db = DB.open(path, Options())
        for i in range(100):
            db.put(f"k{i:03d}".encode(), str(i).encode())
        db.close()
        db2 = DB.open(path, Options())
        for i in range(100):
            assert db2.get(f"k{i:03d}".encode()) == str(i).encode()
        db2.close()

    def test_reopen_without_wal_loses_only_unflushed(self, tmp_path):
        path = str(tmp_path / "db")
        db = DB.open(path, Options(enable_wal=False))
        db.put(b"flushed", b"1")
        db.flush()
        db.put(b"lost", b"2")
        _crash(db)

        db2 = DB.open(path, Options(enable_wal=False))
        assert db2.get(b"flushed") == b"1"
        with pytest.raises(NotFoundError):
            db2.get(b"lost")
        db2.close()

    def test_sequence_monotonic_across_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        db = DB.open(path, Options())
        db.put(b"k", b"v1")
        db.close()
        db2 = DB.open(path, Options())
        db2.put(b"k", b"v2")  # must shadow v1, needs a larger sequence
        assert db2.get(b"k") == b"v2"
        db2.close()

    def test_error_if_exists(self, tmp_path):
        path = str(tmp_path / "db")
        DB.open(path, Options()).close()
        with pytest.raises(InvalidArgumentError):
            DB.open(path, Options(error_if_exists=True))

    def test_create_if_missing_false(self, tmp_path):
        with pytest.raises(NotFoundError):
            DB.open(str(tmp_path / "nope"), Options(create_if_missing=False))


class TestWriteOptions:
    def test_sync_write(self, db):
        db.put(b"k", b"v", WriteOptions(sync=True))
        assert db.stats.wal_syncs == 1

    def test_disable_wal_per_write(self, db):
        db.put(b"k", b"v", WriteOptions(disable_wal=True))
        assert db.stats.wal_records == 0
        assert db.get(b"k") == b"v"


class TestClosedBehaviour:
    def test_ops_after_close_raise(self, tmp_path):
        db = DB.open(str(tmp_path / "db"), Options())
        db.close()
        with pytest.raises(ClosedError):
            db.put(b"k", b"v")
        with pytest.raises(ClosedError):
            db.get(b"k")
        with pytest.raises(ClosedError):
            db.flush()

    def test_double_close_is_fine(self, tmp_path):
        db = DB.open(str(tmp_path / "db"), Options())
        db.close()
        db.close()

    def test_snapshot_release_after_close_leaves_db_alone(self):
        # The live snapshot defers compaction; releasing it after close
        # must not compact into a directory whose LOCK is already gone.
        env = MemEnv()
        db = DB.open(
            "db",
            Options(write_buffer_size=4096, enable_compaction=True),
            env=env,
        )
        snap = db.snapshot()
        for i in range(200):
            db.put(b"key%04d" % i, b"v" * 200)
        db.flush()
        db.close()
        before = sorted(env.get_children("db"))
        snap.release()
        assert sorted(env.get_children("db")) == before

    def test_context_manager(self, tmp_path):
        with DB.open(str(tmp_path / "db"), Options()) as db:
            db.put(b"k", b"v")
        with DB.open(str(tmp_path / "db"), Options()) as db:
            assert db.get(b"k") == b"v"


class TestThreadedFlush:
    def test_background_flush_executor(self):
        executor = ThreadExecutor()
        db = DB.open(
            "db",
            Options(write_buffer_size="8K", enable_compaction=False),
            env=MemEnv(),
            executor=executor,
        )
        for i in range(100):
            db.put(f"key{i:03d}".encode(), bytes(512))
        db.flush()  # drains the worker
        for i in range(100):
            assert db.get(f"key{i:03d}".encode()) == bytes(512)
        db.close()
        executor.close()

    def test_executor_propagates_errors(self):
        executor = ThreadExecutor()
        failures = []

        def boom():
            raise RuntimeError("flush failed")

        executor.submit(boom)
        with pytest.raises(RuntimeError):
            executor.drain()
        executor.close()


def _fail_first_flush_then_reopen(env, executor, reopen_executor):
    """Fail the first flush, overwrite one of its keys in a later
    memtable, then crash and reopen."""
    opts = Options(write_buffer_size=4096, enable_compaction=False)
    db = DB.open("db", opts, env=env, executor=executor)
    for i in range(40):
        db.put(b"key%03d" % i, b"old" + bytes(253))
    db.put(b"key000", b"new")
    db.put(b"big", bytes(5000))  # freezes the memtable holding "new"
    with pytest.raises(StorageIOError, match=r"\.sst"):
        db._executor.drain()
    # The overwrite in a later memtable shadows the failed one's value.
    assert db.get(b"key000") == b"new"
    # No later flush installed: every frozen memtable and WAL is kept.
    assert (len(db._imm), db.stats.memtable_flushes) == (4, 0)
    with pytest.raises(StorageIOError, match="reopen"):
        db.put(b"late", b"x")
    with pytest.raises(StorageIOError, match="reopen"):
        db.flush()
    _crash(db)
    db = DB.open("db", opts, env=env, executor=reopen_executor)
    assert db.get(b"key000") == b"new"
    for i in range(1, 40):
        assert db.get(b"key%03d" % i) == b"old" + bytes(253)
    assert db.get(b"big") == bytes(5000)
    assert b"late" not in db
    db.close()


class TestFlushFailure:
    """A failed flush stops every later one until the DB is reopened."""

    @pytest.mark.parametrize("backend", ["thread", "sim"])
    def test_later_flushes_stand_down_and_reopen_recovers(self, backend):
        # DB.open syncs twice, so the third sync is the first flush's table.
        env = FaultyEnv(MemEnv(), FaultSchedule().fail_sync(at=3))
        if backend == "thread":
            executors = ThreadExecutor(), ThreadExecutor()
            _fail_first_flush_then_reopen(env, *executors)
            for executor in executors:
                executor.close()
        else:
            with sim.Engine() as engine:
                engine.spawn(
                    _fail_first_flush_then_reopen,
                    env,
                    SimExecutor(engine),
                    SimExecutor(engine),
                )
                engine.run()
        assert env.syncs_failed == 1


class TestStats:
    def test_counters_track_activity(self):
        db = mem_db()
        db.put(b"k", b"v")
        db.get(b"k")
        snap = db.stats.snapshot()
        assert snap["writes"] == 1
        assert snap["gets"] == 1
        assert snap["bytes_written"] == 2
        db.close()

    def test_cpu_charge_hook_called(self):
        charges = []
        options = Options(
            write_buffer_size="32K",
            cpu_charge=lambda nbytes, kind: charges.append((nbytes, kind)),
        )
        db = DB.open("db", options, env=MemEnv())
        db.put(b"k", b"v" * 100)
        assert charges and charges[0][1] == "memtable-insert"
        db.close()
