"""Tests for LsmioManager: K/V API, typed puts, counters, collective mode."""

import numpy as np
import pytest

from repro.errors import (
    ClosedError,
    DegradedWriteError,
    InvalidArgumentError,
    NotFoundError,
    OstUnavailableError,
)
from repro.core import LsmioManager, LsmioOptions
from repro.lsm.env import MemEnv
from repro.mpi import run_world


def make_manager(**kwargs):
    kwargs.setdefault("options", LsmioOptions(write_buffer_size="64K"))
    kwargs.setdefault("env", MemEnv())
    return LsmioManager("mgr", **kwargs)


class TestLocalKv:
    def test_put_get(self):
        with make_manager() as mgr:
            mgr.put(b"k", b"v")
            assert mgr.get(b"k") == b"v"

    def test_string_keys_and_values(self):
        with make_manager() as mgr:
            mgr.put("rank0/temperature", "23.5")
            assert mgr.get("rank0/temperature") == b"23.5"

    def test_append(self):
        with make_manager() as mgr:
            mgr.append("stream", b"a")
            mgr.append("stream", b"b")
            assert mgr.get("stream") == b"ab"

    def test_delete(self):
        with make_manager() as mgr:
            mgr.put("k", b"v")
            mgr.delete("k")
            with pytest.raises(NotFoundError):
                mgr.get("k")

    def test_write_barrier(self):
        with make_manager() as mgr:
            mgr.put("k", bytes(100 << 10))
            mgr.write_barrier()
            assert mgr.get("k") == bytes(100 << 10)

    def test_scan(self):
        with make_manager() as mgr:
            for name in ("b", "a", "c"):
                mgr.put(name, name.upper())
            assert [k for k, _ in mgr.scan()] == [b"a", b"b", b"c"]

    def test_bad_key_type(self):
        with make_manager() as mgr:
            with pytest.raises(InvalidArgumentError):
                mgr.put(3.14, b"v")


class TestTypedPuts:
    def test_roundtrip_types(self):
        with make_manager() as mgr:
            mgr.put_typed("int", 42)
            mgr.put_typed("float", 2.5)
            mgr.put_typed("str", "text")
            mgr.put_typed("bytes", b"\x00\x01")
            arr = np.arange(12, dtype=np.float32).reshape(3, 4)
            mgr.put_typed("array", arr)

            assert mgr.get_typed("int") == 42
            assert mgr.get_typed("float") == 2.5
            assert mgr.get_typed("str") == "text"
            assert mgr.get_typed("bytes") == b"\x00\x01"
            np.testing.assert_array_equal(mgr.get_typed("array"), arr)


class TestCounters:
    def test_counters_track_ops(self):
        with make_manager() as mgr:
            mgr.put("k", b"12345")
            mgr.append("k", b"678")
            mgr.get("k")
            mgr.delete("k")
            mgr.write_barrier()
            snap = mgr.counters.snapshot()
            assert snap["puts"] == 1
            assert snap["appends"] == 1
            assert snap["gets"] == 1
            assert snap["deletes"] == 1
            assert snap["barriers"] == 1
            assert snap["bytes_put"] == 8
            assert snap["bytes_got"] == 8

    def test_counters_record_encoded_byte_length(self):
        # Regression: byte accounting must use the UTF-8 encoded length,
        # not the pre-encoding character count.
        with make_manager() as mgr:
            mgr.put("k", "héllo")  # 6 bytes encoded, 5 characters
            mgr.append("k", "é")  # 2 bytes encoded, 1 character
            snap = mgr.counters.snapshot()
            assert snap["bytes_put"] == 8
            assert mgr.get("k") == "héllo".encode() + "é".encode()
            assert mgr.counters.bytes_got == 8

    def test_counters_reset(self):
        with make_manager() as mgr:
            mgr.put("k", b"v")
            mgr.counters.reset()
            assert mgr.counters.puts == 0


class TestFactory:
    def test_get_or_create_reuses(self):
        env = MemEnv()
        mgr1 = LsmioManager.get_or_create("factory-db", env=env)
        mgr2 = LsmioManager.get_or_create("factory-db", env=env)
        assert mgr1 is mgr2
        mgr1.close()

    def test_get_or_create_after_close_makes_new(self):
        env = MemEnv()
        mgr1 = LsmioManager.get_or_create("factory-db2", env=env)
        mgr1.close()
        mgr2 = LsmioManager.get_or_create("factory-db2", env=env)
        assert mgr2 is not mgr1
        mgr2.close()


class TestGroupCommitAccounting:
    """The manager's write accumulation and its PerfCounters surface."""

    def test_accumulated_puts_merge_into_one_commit(self):
        with make_manager() as mgr:
            for i in range(5):
                mgr.put(f"k{i}", b"v")
            mgr.write_barrier()
            # Five puts rode one merged WriteBatch: four were absorbed.
            assert mgr.counters.batches_merged >= 4
            assert mgr.store.db.stats.writes == 5
            assert mgr.store.db.stats.wal_records <= 1
            for i in range(5):
                assert mgr.get(f"k{i}") == b"v"

    def test_reads_flush_pending_writes(self):
        # Read-your-writes: a get/scan must observe puts still sitting in
        # the accumulation batch.
        with make_manager() as mgr:
            mgr.put("k", b"v")
            assert mgr.get("k") == b"v"
            mgr.put("k2", b"w")
            assert [name for name, _ in mgr.scan()] == [b"k", b"k2"]

    def test_sync_write_flushes_immediately(self):
        opts = LsmioOptions(write_buffer_size="64K", sync_writes=True)
        with make_manager(options=opts) as mgr:
            mgr.put("k", b"v")
            # The pending batch was flushed by the sync put, not parked
            # (paper config runs WAL-less, so durability is the flush).
            assert mgr._pending is None  # noqa: SLF001
            assert mgr.store.db.stats.writes == 1

    def test_new_counters_survive_snapshot_and_reset(self):
        with make_manager() as mgr:
            for i in range(3):
                mgr.put(f"k{i}", b"v")
            mgr.write_barrier()
            snap = mgr.counters.snapshot()
            assert snap["batches_merged"] >= 2
            assert "bytes_coalesced" in snap
            mgr.counters.reset()
            assert mgr.counters.batches_merged == 0


class TestDegradedGroupCommit:
    def test_failed_group_commit_degrades_at_barrier(self):
        # A terminal storage fault surfacing from the engine commit of
        # the accumulated batch must take the degraded path:
        # DegradedWriteError with a report, not a bare storage exception
        # — and the error covers every operation that rode the batch.
        with make_manager() as mgr:
            for i in range(3):
                mgr.put(f"k{i}", b"v" * 64)

            def sabotage(batch, write_options):
                raise OstUnavailableError("ost0001 unavailable")

            mgr.store.db._commit = sabotage  # noqa: SLF001
            with pytest.raises(DegradedWriteError) as excinfo:
                mgr.write_barrier()
            report = excinfo.value.report
            assert report is not None and report.completed is False
            assert mgr.last_barrier_report is report
            assert mgr.counters.failed_barriers == 1
            assert mgr.counters.degraded_barriers == 1

            # None of the accumulated batch's keys became visible.
            for i in range(3):
                with pytest.raises(NotFoundError):
                    mgr.get(f"k{i}")

            # Healed storage: the manager keeps working.
            del mgr.store.db._commit  # noqa: SLF001
            mgr.put("after", b"ok")
            mgr.write_barrier()
            assert mgr.get("after") == b"ok"


class TestLifecycle:
    def test_closed_rejects(self):
        mgr = make_manager()
        mgr.close()
        with pytest.raises(ClosedError):
            mgr.put("k", b"v")

    def test_double_close(self):
        mgr = make_manager()
        mgr.close()
        mgr.close()

    def test_collective_requires_comm(self):
        with pytest.raises(InvalidArgumentError):
            LsmioManager("x", collective=True)


class TestCollectiveMode:
    """Collective I/O (§3.1.3/§5.1): one store per rank group."""

    @staticmethod
    def _spmd(comm, group_size=None):
        shared_env = comm.world._shared_env  # injected below
        mgr = LsmioManager(
            "coll-db",
            options=LsmioOptions(write_buffer_size="64K"),
            env=shared_env,
            comm=comm,
            collective=True,
            collective_group_size=group_size,
        )
        mgr.put(f"rank{comm.rank}/data", f"payload-{comm.rank}".encode())
        mgr.append("shared-log", f"[{comm.rank}]".encode())
        mgr.write_barrier()
        own = mgr.get(f"rank{comm.rank}/data")
        comm.barrier()
        mgr.close()
        return own

    def _run(self, size, group_size=None):
        env = MemEnv()

        def setup(world):
            world._shared_env = env

        results = run_world(
            size, self._spmd, group_size, world_setup=setup
        )
        return results, env

    def test_all_ranks_share_one_store(self):
        results, env = self._run(4)
        assert results == [f"payload-{r}".encode() for r in range(4)]
        # Exactly one DB directory (rank 0's) exists.
        assert env.get_children("coll-db")  # store created
        from repro.core import LsmioStore

        store = LsmioStore("coll-db", LsmioOptions(), env=env)
        log = store.get(b"shared-log")
        assert sorted(log.decode().replace("]", "]|").split("|")[:-1]) == [
            "[0]",
            "[1]",
            "[2]",
            "[3]",
        ]
        store.close()

    def test_grouped_aggregation(self):
        env = MemEnv()

        def spmd(comm):
            mgr = LsmioManager(
                f"group-db-{(comm.rank // 2) * 2}",
                options=LsmioOptions(write_buffer_size="64K"),
                env=env,
                comm=comm,
                collective=True,
                collective_group_size=2,
            )
            mgr.put(f"rank{comm.rank}", b"x")
            mgr.write_barrier()
            is_agg = mgr.is_aggregator
            comm.barrier()
            mgr.close()
            return is_agg

        results = run_world(4, spmd)
        assert results == [True, False, True, False]

    def test_remote_get_missing_raises(self):
        env = MemEnv()

        def spmd(comm):
            mgr = LsmioManager(
                "db",
                options=LsmioOptions(write_buffer_size="64K"),
                env=env,
                comm=comm,
                collective=True,
            )
            outcome = None
            if comm.rank == 1:
                try:
                    mgr.get("never-written")
                except NotFoundError:
                    outcome = "raised"
            comm.barrier()
            mgr.close()
            return outcome

        results = run_world(2, spmd)
        assert results[1] == "raised"
