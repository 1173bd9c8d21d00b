"""Tests for LsmioStore: Table 1 semantics in both backend modes."""

import pytest

from repro import sim
from repro.errors import ClosedError, InvalidArgumentError, NotFoundError
from repro.core import Backend, LsmioOptions, LsmioStore
from repro.lsm.env import MemEnv
from repro.sim.executor import SimExecutor


def make_store(backend=Backend.ROCKSDB, **opts):
    defaults = dict(write_buffer_size="64K")
    defaults.update(opts)
    return LsmioStore(
        "store", LsmioOptions(backend=backend, **defaults), env=MemEnv()
    )


class TestRocksdbMode:
    def test_put_get(self):
        with make_store() as store:
            store.put(b"k", b"v")
            assert store.get(b"k") == b"v"

    def test_append(self):
        with make_store() as store:
            store.append(b"s", b"a")
            store.append(b"s", b"b")
            assert store.get(b"s") == b"ab"

    def test_delete_and_del_alias(self):
        with make_store() as store:
            store.put(b"k", b"v")
            store.del_(b"k")
            with pytest.raises(NotFoundError):
                store.get(b"k")

    def test_write_barrier_flushes_memtable(self):
        with make_store() as store:
            store.put(b"k", b"v" * 1000)
            store.write_barrier()
            files, _ = store.db.approximate_level_shape()[0]
            assert files >= 1

    def test_no_wal_files_written(self):
        env = MemEnv()
        store = LsmioStore("s", LsmioOptions(), env=env)
        store.put(b"k", b"v")
        store.write_barrier()
        logs = [n for n in env.get_children("s") if n.endswith(".log")]
        store.close()
        assert logs == []

    def test_batch_calls_are_noops(self):
        with make_store() as store:
            store.start_batch()  # RocksDB mode: batching unnecessary
            store.put(b"k", b"v")
            assert store.get(b"k") == b"v"  # visible without stop_batch
            store.stop_batch()

    def test_scan(self):
        with make_store() as store:
            for i in (3, 1, 2):
                store.put(f"k{i}".encode(), str(i).encode())
            assert [k for k, _ in store.scan()] == [b"k1", b"k2", b"k3"]

    def test_type_validation(self):
        with make_store() as store:
            with pytest.raises(InvalidArgumentError):
                store.put("str-key", b"v")
            with pytest.raises(InvalidArgumentError):
                store.put(b"k", 123)


class TestLeveldbMode:
    def test_wal_present(self):
        env = MemEnv()
        store = LsmioStore(
            "s", LsmioOptions(backend=Backend.LEVELDB), env=env
        )
        store.put(b"k", b"v")
        logs = [n for n in env.get_children("s") if n.endswith(".log")]
        store.close()
        assert logs  # LevelDB cannot run WAL-less

    def test_batched_writes_apply_at_stop(self):
        with make_store(Backend.LEVELDB) as store:
            store.start_batch()
            store.put(b"k1", b"v1")
            store.put(b"k2", b"v2")
            store.stop_batch()
            assert store.get(b"k1") == b"v1"
            assert store.get(b"k2") == b"v2"

    def test_reads_observe_open_batch(self):
        # Reads are synchronous and must see batched writes (Table 1).
        with make_store(Backend.LEVELDB) as store:
            store.start_batch()
            store.put(b"k", b"v")
            assert store.get(b"k") == b"v"
            store.put(b"k2", b"v2")
            store.stop_batch()
            assert store.get(b"k2") == b"v2"

    def test_write_barrier_applies_open_batch(self):
        with make_store(Backend.LEVELDB) as store:
            store.start_batch()
            store.put(b"k", b"v")
            store.write_barrier()
            assert store.get(b"k") == b"v"

    def test_append_in_batch(self):
        with make_store(Backend.LEVELDB) as store:
            store.start_batch()
            store.append(b"s", b"1")
            store.append(b"s", b"2")
            store.stop_batch()
            assert store.get(b"s") == b"12"


class TestSyncModes:
    def test_sync_writes_inline(self):
        with make_store(sync_writes=True) as store:
            store.put(b"k", b"v" * (100 << 10))  # exceeds 64K buffer
            files, _ = store.db.approximate_level_shape()[0]
            assert files >= 1  # flushed inline

    def test_async_writes_collected_by_barrier(self):
        with make_store(sync_writes=False) as store:
            for i in range(8):
                store.put(f"k{i}".encode(), bytes(16 << 10))
            store.write_barrier(sync=True)
            for i in range(8):
                assert store.get(f"k{i}".encode()) == bytes(16 << 10)

    def test_per_put_sync_override(self):
        with make_store(sync_writes=False) as store:
            store.put(b"k", b"v" * (100 << 10), sync=True)
            files, _ = store.db.approximate_level_shape()[0]
            assert files >= 1


    def test_executor_failure_inside_the_simulator_is_raised(self, monkeypatch):
        # Only "not inside a simulation" selects a real thread; an error
        # while building the simulated executor must not fall back to one.
        def broken(self, engine):
            raise RuntimeError("executor construction failed")

        monkeypatch.setattr(SimExecutor, "__init__", broken)

        def main():
            with pytest.raises(RuntimeError, match="construction failed"):
                LsmioStore("store", LsmioOptions(sync_writes=False), env=MemEnv())
            return "raised"

        with sim.Engine() as engine:
            proc = engine.spawn(main)
            engine.run()
        assert proc.result == "raised"


class TestLifecycle:
    def test_closed_store_rejects_ops(self):
        store = make_store()
        store.close()
        with pytest.raises(ClosedError):
            store.put(b"k", b"v")
        with pytest.raises(ClosedError):
            store.get(b"k")

    def test_double_close(self):
        store = make_store()
        store.close()
        store.close()

    def test_close_persists(self):
        env = MemEnv()
        store = LsmioStore("s", LsmioOptions(), env=env)
        store.put(b"k", b"important")
        store.close()
        store2 = LsmioStore("s", LsmioOptions(), env=env)
        assert store2.get(b"k") == b"important"
        store2.close()
