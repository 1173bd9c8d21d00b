"""End-to-end tests for the DB facade: write/read paths, flush, recovery."""

import os
import sys

import pytest

import repro
from repro import sim
from repro.core import LsmioManager, LsmioOptions
from repro.errors import (
    ClosedError,
    CorruptionError,
    InvalidArgumentError,
    NotFoundError,
    StorageIOError,
)
from repro.fault import FaultSchedule, FaultyEnv
from repro.lsm import (
    DB,
    LocalFsEnv,
    MemEnv,
    Options,
    ReadOptions,
    WriteBatch,
    WriteOptions,
)
from repro.lsm.cache import LRUCache
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
        may_contain, versions = Table.may_contain, Table.versions

        def probe(table, key):
            found = may_contain(table, key)
            events.append(("bloom", table._file_number, found))
            return found

        def record_lookup(table, bound, read_options):
            events.append(("seek", table._file_number))
            return versions(table, bound, read_options)

        monkeypatch.setattr(Table, "may_contain", probe)
        monkeypatch.setattr(Table, "versions", record_lookup)
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

    def test_malformed_properties_block_raises_corruption(self):
        # Checksums off, so the bytes reach the parser: a table whose
        # properties block is not JSON must fail as corruption.
        env = MemEnv()
        options = Options(checksum="none", enable_compaction=False)
        db = DB.open("db", options, env=env)
        db.put(b"k", b"v")
        db.flush()
        db.close()
        (name,) = [n for n in env.get_children("db") if n.endswith(".sst")]
        data = env._files[f"db/{name}"].data  # noqa: SLF001
        data[data.index(b'{"block_size"')] = 0xFF
        db = DB.open("db", options, env=env)
        try:
            with pytest.raises(CorruptionError):
                db.get(b"k")
        finally:
            db.close()


class _TracingEnv(MemEnv):
    """MemEnv whose random-access files log (file number, offset, nbytes)."""

    def __init__(self, events):
        super().__init__()
        self.events = events

    def new_random_access_file(self, path):
        number = int(path.rsplit("/", 1)[-1].split(".")[0])
        return _TracedFile(
            super().new_random_access_file(path), number, self.events
        )


class _TracedFile:
    def __init__(self, base, number, events):
        self._base, self._number, self._events = base, number, events

    def read(self, offset, nbytes):
        self._events.append(("read", self._number, offset, nbytes))
        return self._base.read(offset, nbytes)

    def size(self):
        return self._base.size()

    def close(self):
        self._base.close()


def _build_read_trace_db(env):
    """Five tables over 64-byte blocks, reopened cold.

    File 5 is L1 (every k-key and m's base); 8 and 10 are overlapping L0
    files, 10 holding a delete of k04 and a six-operand append chain of m
    that spans three data blocks; 12 spans [a, z] and its bloom filter
    rules out nearly every k-key; 15 is flushed after a snapshot.
    """
    small = dict(write_buffer_size="1M", block_size=64, block_restart_interval=2)
    db = DB.open(
        "db", Options(level0_file_num_compaction_trigger=1, **small), env=env
    )
    for i in range(12):
        db.put(f"k{i:02d}".encode(), f"L1-{i}-".encode() * 3)
    db.put(b"m", b"base")
    db.flush()  # chains a compaction of the one L0 file into L1
    db.close()
    options = Options(enable_compaction=False, **small)
    db = DB.open("db", options, env=env)
    for i in (3, 5, 7):
        db.put(f"k{i:02d}".encode(), f"L0a-{i}".encode())
    db.append(b"m", b"+a1")
    db.append(b"m", b"+a2")
    db.flush()
    for i in range(2, 10, 3):
        db.put(f"k{i:02d}".encode(), f"L0b-{i}".encode() * 2)
    db.delete(b"k04")
    for j in range(6):
        db.append(b"m", f"+chain-{j}-".encode() * 2)
    db.flush()
    db.put(b"a", b"first")
    db.put(b"z", b"last")
    db.flush()
    db.close()
    db = DB.open("db", options, env=env)
    snap = db.snapshot()
    db.append(b"m", b"+late")
    db.flush()
    return db, snap


_M_CHAIN = b"base+a1+a2" + b"".join(
    f"+chain-{j}-".encode() * 2 for j in range(6)
)

#: every Env read and cache lookup of the gets below, as the read path
#: made them when this pin was taken; the simulated read schedules and the
#: ledger's exact read counters depend on this order
PINNED_READ_TRACE = [
    ('get', b'k05'),
    ('cache', 12),
    ('read', 12, 263, 28),
    ('read', 12, 236, 27),
    ('read', 12, 187, 49),
    ('read', 12, 46, 14),
    ('read', 12, 60, 127),
    ('cache', 10),
    ('read', 10, 599, 28),
    ('read', 10, 514, 85),
    ('read', 10, 463, 51),
    ('read', 10, 320, 14),
    ('read', 10, 334, 129),
    ('cache', (10, 0)),
    ('read', 10, 0, 77),
    ('get', b'm'),
    ('cache', 15),
    ('read', 15, 247, 28),
    ('read', 15, 220, 27),
    ('read', 15, 171, 49),
    ('read', 15, 30, 14),
    ('read', 15, 44, 127),
    ('cache', (15, 0)),
    ('read', 15, 0, 30),
    ('cache', 12),
    ('cache', 10),
    ('cache', (10, 77)),
    ('read', 10, 77, 101),
    ('cache', (10, 178)),
    ('read', 10, 178, 71),
    ('cache', (10, 249)),
    ('read', 10, 249, 71),
    ('cache', 8),
    ('read', 8, 350, 28),
    ('read', 8, 303, 47),
    ('read', 8, 254, 49),
    ('read', 8, 113, 14),
    ('read', 8, 127, 127),
    ('cache', (8, 72)),
    ('read', 8, 72, 41),
    ('cache', 5),
    ('read', 5, 805, 28),
    ('read', 5, 653, 152),
    ('read', 5, 602, 51),
    ('read', 5, 449, 23),
    ('read', 5, 472, 130),
    ('cache', (5, 420)),
    ('read', 5, 420, 29),
    ('get', b'k99'),
    ('cache', 12),
    ('cache', 10),
    ('cache', 8),
    ('cache', 5),
    ('get', b'k045'),
    ('cache', 12),
    ('cache', 10),
    ('cache', 8),
    ('cache', 5),
    ('get', b'k04'),
    ('cache', 12),
    ('cache', 10),
    ('cache', (10, 0)),
    ('get', b'k00'),
    ('cache', 12),
    ('cache', 5),
    ('cache', (5, 0)),
    ('read', 5, 0, 69),
    ('get', b'm'),
    ('cache', 15),
    ('cache', 12),
    ('cache', 10),
    ('cache', (10, 77)),
    ('cache', (10, 178)),
    ('cache', (10, 249)),
    ('cache', 8),
    ('cache', (8, 72)),
    ('cache', 5),
    ('cache', (5, 420)),
    ('get', b'k05'),
    ('cache', 12),
    ('cache', 10),
    ('cache', (10, 0)),
    ('get', b'a'),
    ('cache', 12),
    ('cache', (12, 0)),
    ('read', 12, 0, 46),
    ('get', b'k10'),
    ('cache', 12),
    ('cache', 10),
    ('cache', 8),
    ('cache', 5),
    ('cache', (5, 345)),
    ('read', 5, 345, 75),
]


class TestPointReadTrace:
    def test_gets_read_and_probe_caches_in_the_pinned_order(self, monkeypatch):
        events = []
        db, snap = _build_read_trace_db(_TracingEnv(events))
        gets = [
            (b"k05", None, b"L0b-5" * 2),
            (b"m", None, _M_CHAIN + b"+late"),
            (b"k99", None, None),  # inside two ranges, ruled out by blooms
            (b"k045", None, None),
            (b"k04", None, None),  # deleted in an L0 file
            (b"k00", None, b"L1-0-" * 3),
            (b"m", snap, _M_CHAIN),
            (b"k05", None, b"L0b-5" * 2),
            (b"a", None, b"first"),
            (b"k10", None, b"L1-10-" * 3),
        ]
        cache_get = LRUCache.get

        def logged_get(cache, key):
            events.append(("cache", key))
            return cache_get(cache, key)

        monkeypatch.setattr(LRUCache, "get", logged_get)
        events.clear()
        try:
            for key, at, want in gets:
                events.append(("get", key))
                try:
                    got = db.get(key, ReadOptions(snapshot=at))
                except NotFoundError:
                    got = None
                assert got == want, key
            assert events == PINNED_READ_TRACE
        finally:
            snap.release()
            db.close()


class TestPointGetCallBudget:
    """Per-get cost of the whole read stack, counted instead of timed."""

    #: Python calls into ``repro`` per ``LsmioManager.get`` with the tables
    #: open: 35 on CPython 3.11 (80 before the direct point-lookup walk),
    #: plus a tenth for interpreter differences.
    MAX_CALLS_PER_GET = 38
    VALUE = 64 << 10

    def test_manager_get_stays_within_its_call_budget(self, tmp_path):
        src = os.path.dirname(repro.__file__) + os.sep
        keys = [f"ckpt/var{i:08d}".encode() for i in range(48)]
        options = LsmioOptions(write_buffer_size="1M")
        path = str(tmp_path / "ckpt")
        manager = LsmioManager(path, options, env=LocalFsEnv())
        for i, key in enumerate(keys):
            manager.put(key, bytes([i]) * self.VALUE)
        manager.write_barrier(sync=True)
        manager.close()

        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename.startswith(src):
                calls += 1

        manager = LsmioManager(path, options, env=LocalFsEnv())
        try:
            for key in keys:
                manager.get(key)  # opens every table
            values = []
            previous = sys.getprofile()
            sys.setprofile(count)
            try:
                for key in keys:
                    values.append(manager.get(key))
            finally:
                sys.setprofile(previous)
        finally:
            manager.close()
        assert values == [bytes([i]) * self.VALUE for i in range(len(keys))]
        assert calls / len(keys) <= self.MAX_CALLS_PER_GET, calls / len(keys)


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
