"""Tier mechanics over MemEnv: absorb/seal/drain, the degradation
ladder, drain retry/park, namespace semantics, and tier-level recovery."""

import pytest

from repro import sim
from repro.bb import (
    BurstBufferConfig,
    BurstBufferTier,
    SegmentState,
)
from repro.bb import tier as tier_module
from repro.errors import NotFoundError, StorageIOError
from repro.fault import FaultSchedule, SimulatedCrash
from repro.lsm.env import MemEnv


def run_sim(fn):
    with sim.Engine() as engine:
        proc = engine.spawn(fn)
        engine.run()
    return proc.result


def make_tier(base=None, schedule=None, **config_overrides):
    config = BurstBufferConfig(**config_overrides)
    return BurstBufferTier(base or MemEnv(), config=config,
                           schedule=schedule)


def write_file(env, path, data, sync=False):
    out = env.new_writable_file(path)
    out.append(data)
    if sync:
        out.sync()
    out.close()


def read_file(env, path):
    src = env.new_sequential_file(path)
    chunks = []
    while True:
        chunk = src.read(1 << 20)
        if not chunk:
            break
        chunks.append(chunk)
    src.close()
    return b"".join(chunks)


class TestHappyPath:
    def test_absorb_seal_drain_lands_identical_bytes_on_base(self):
        data = b"payload " * 1000

        def main():
            base = MemEnv()
            tier = make_tier(base)
            env = tier.env
            write_file(env, "seg", data, sync=True)
            assert tier.segment_state("seg") is SegmentState.DIRTY
            assert not base.file_exists("seg")  # drain is asynchronous
            report = tier.drain_barrier()
            assert report.completed and not report.degraded
            assert tier.segment_state("seg") is SegmentState.COMMITTED
            assert read_file(base, "seg") == data
            assert read_file(env, "seg") == data  # still device-resident
            snap = tier.stats.snapshot()
            assert snap["bytes_absorbed"] == len(data)
            assert snap["bytes_drained"] == len(data)
            assert snap["segments_sealed"] == 1
            assert snap["segments_committed"] == 1
            assert snap["dirty_bytes"] == 0
            assert snap["degraded_writes"] == 0

        run_sim(main)

    def test_absorb_charges_device_not_pfs_time(self):
        def main():
            tier = make_tier(write_bandwidth=1 << 20, read_bandwidth=0)
            write_file(tier.env, "seg", b"x" * (1 << 20), sync=True)
            return sim.now()

        # 1 MiB at 1 MiB/s of device bandwidth (plus the ~25-byte journal
        # SEAL record): sync returns after the absorb, without waiting
        # for any PFS round trip
        assert run_sim(main) == pytest.approx(1.0, rel=1e-3)

    def test_close_without_sync_still_seals(self):
        def main():
            tier = make_tier()
            write_file(tier.env, "seg", b"abc")
            assert tier.segment_state("seg") is SegmentState.DIRTY
            tier.drain_barrier()
            assert tier.segment_state("seg") is SegmentState.COMMITTED

        run_sim(main)

    def test_sync_then_clean_close_seals_once(self):
        def main():
            tier = make_tier()
            write_file(tier.env, "seg", b"abc", sync=True)
            assert tier.stats.segments_sealed == 1

        run_sim(main)

    def test_sync_after_close_raises_and_never_reseals(self):
        def main():
            tier = make_tier()
            write_file(tier.env, "seg", b"abc", sync=True)
            out = tier.env.new_writable_file("late")
            out.append(b"xyz")
            out.close()
            for late in (out.flush, out.sync):
                with pytest.raises(StorageIOError, match="closed"):
                    late()
            tier.drain_barrier()
            snap = tier.stats.snapshot()
            assert snap["segments_sealed"] == 2  # one per file
            assert snap["segments_committed"] == 2

        run_sim(main)


class TestDegradationLadder:
    def test_eviction_frees_committed_segments(self):
        a, b = b"a" * (48 << 10), b"b" * (32 << 10)

        def main():
            base = MemEnv()
            tier = make_tier(base, capacity="64K")
            env = tier.env
            write_file(env, "a", a, sync=True)
            tier.drain_barrier()
            write_file(env, "b", b, sync=True)  # needs a's 48K evicted
            tier.drain_barrier()
            assert tier.stats.evictions == 1
            assert tier.stats.degraded_writes == 0
            # a's device copy is gone; reads fall back to the PFS copy
            assert not tier.device.exists("a")
            assert tier.segment_state("a") is SegmentState.COMMITTED
            assert read_file(env, "a") == a
            assert read_file(env, "b") == b

        run_sim(main)

    def test_backpressure_waits_for_inflight_drain(self):
        a, b = b"a" * (48 << 10), b"b" * (32 << 10)

        def main():
            base = MemEnv()
            # slow drain reads: a's drain is still in flight when b
            # overflows, so the writer must backpressure-wait for it
            tier = make_tier(base, capacity="64K", write_bandwidth=0,
                             read_bandwidth=1 << 20)
            env = tier.env
            write_file(env, "a", a, sync=True)
            write_file(env, "b", b, sync=True)
            report = tier.drain_barrier()
            assert tier.stats.overflow_waits == 1
            assert tier.stats.overflow_wait_time > 0
            assert report.overflow_waits == 1
            assert not report.write_through
            assert tier.stats.evictions == 1
            assert read_file(base, "a") == a
            assert read_file(base, "b") == b

        run_sim(main)

    def test_overflow_with_idle_drain_degrades_to_write_through(self):
        data = b"z" * (256 << 10)

        def main():
            base = MemEnv()
            tier = make_tier(base, capacity="64K")
            env = tier.env
            write_file(env, "big", data, sync=True)
            assert tier.stats.degraded_writes == 1
            assert tier.stats.bytes_written_through == len(data)
            assert tier.segment_state("big") is None
            assert not tier.device.exists("big")
            assert read_file(base, "big") == data
            assert read_file(env, "big") == data
            report = tier.drain_barrier()
            assert report.write_through and report.degraded
            assert report.completed  # nothing was lost, only slow

        run_sim(main)

    def test_partially_absorbed_file_migrates_whole(self):
        """Overflow mid-file: the already-absorbed prefix moves to the
        base env together with the pending bytes — no torn files."""
        first, second = b"1" * (48 << 10), b"2" * (48 << 10)

        def main():
            base = MemEnv()
            tier = make_tier(base, capacity="64K")
            env = tier.env
            out = env.new_writable_file("f")
            out.append(first)
            out.sync()  # 48K absorbed and sealed
            out.append(second)  # 96K total: overflows on the next seal
            out.close()
            assert tier.stats.degraded_writes == 1
            assert read_file(base, "f") == first + second
            assert read_file(env, "f") == first + second

        run_sim(main)

    def test_overflow_inside_an_append_migrates_its_pending_tail(
        self, monkeypatch
    ):
        """A 48K append against 32K writes: the first 32K fails to
        absorb, and the 16K still pending moves to the base with it."""
        monkeypatch.setattr(tier_module, "_WRITE_BUFFER", 32 << 10)
        first, second = b"1" * (48 << 10), b"2" * (48 << 10)

        def main():
            base = MemEnv()
            tier = make_tier(base, capacity="64K")
            out = tier.env.new_writable_file("f")
            out.append(first)
            out.sync()  # 48K absorbed and sealed
            out.append(second)  # the first 32K overflow the device
            assert tier.stats.degraded_writes == 1
            out.append(b"3")  # later appends go straight to the base
            out.close()
            assert read_file(base, "f") == first + second + b"3"
            assert tier.stats.bytes_written_through == len(
                first + second + b"3"
            )

        run_sim(main)

    def test_device_failure_degrades_then_recovers(self):
        data = b"x" * 1024
        schedule = (
            FaultSchedule(seed=1)
            .fail_bb_device(at_time=0.0, duration=0.5)
        )

        def main():
            base = MemEnv()
            tier = make_tier(base, schedule=schedule)
            env = tier.env
            write_file(env, "during", data, sync=True)  # device down
            assert tier.stats.degraded_writes == 1
            assert tier.stats.bytes_written_through == len(data)
            assert read_file(base, "during") == data
            sim.sleep(1.0)  # device back up
            write_file(env, "after", data, sync=True)
            assert tier.segment_state("after") is SegmentState.DIRTY
            assert tier.stats.bytes_absorbed == len(data)
            tier.drain_barrier()
            assert read_file(base, "after") == data

        run_sim(main)


class _FlakySyncEnv(MemEnv):
    """Base env whose file syncs fail the first ``fail_syncs`` times."""

    def __init__(self, fail_syncs):
        super().__init__()
        self.fail_syncs = fail_syncs

    def new_writable_file(self, path):
        inner = super().new_writable_file(path)
        env = self

        class Flaky:
            def append(self, data):
                inner.append(data)

            def flush(self):
                inner.flush()

            def sync(self):
                if env.fail_syncs > 0:
                    env.fail_syncs -= 1
                    raise StorageIOError("injected PFS sync failure")
                inner.sync()

            def close(self):
                inner.close()

        return Flaky()


class TestDrainFaults:
    def test_transient_pfs_faults_are_retried_with_backoff(self):
        data = b"x" * 4096

        def main():
            base = _FlakySyncEnv(fail_syncs=2)
            tier = make_tier(base, drain_retries=4, drain_backoff=0.01)
            write_file(tier.env, "seg", data, sync=True)
            report = tier.drain_barrier()
            assert report.completed
            assert report.degraded
            assert report.drain_retries == 2
            assert tier.stats.drain_retries == 2
            assert tier.stats.drain_failures == 0
            assert tier.segment_state("seg") is SegmentState.COMMITTED
            assert read_file(base, "seg") == data
            # backoff 0.01 then 0.02 simulated seconds
            assert sim.now() >= 0.03

        run_sim(main)

    def test_exhausted_retries_park_the_segment(self):
        data = b"x" * 4096

        def main():
            base = _FlakySyncEnv(fail_syncs=10 ** 6)
            tier = make_tier(base, drain_retries=1, drain_backoff=0.01)
            write_file(tier.env, "seg", data, sync=True)
            report = tier.drain_barrier()  # parked drains don't block it
            assert not report.completed
            assert report.drain_failures == 1
            assert report.failed_segments == ("seg",)
            assert tier.parked_segments == ("seg",)
            assert tier.segment_state("seg") is SegmentState.DIRTY
            # the fault clears; a retry lands the segment on the PFS
            base.fail_syncs = 0
            assert tier.retry_failed() == 1
            retried = tier.drain_barrier()
            assert retried.completed
            assert tier.parked_segments == ()
            assert tier.segment_state("seg") is SegmentState.COMMITTED
            assert read_file(base, "seg") == data

        run_sim(main)


class TestNamespace:
    def test_rename_supersedes_inflight_drain(self):
        data = b"r" * 2048

        def main():
            base = MemEnv()
            tier = make_tier(base)
            env = tier.env
            write_file(env, "tmp", data, sync=True)
            env.rename_file("tmp", "final")  # before the drain runs
            tier.drain_barrier()
            assert tier.segment_state("tmp") is None
            assert tier.segment_state("final") is SegmentState.COMMITTED
            assert not env.file_exists("tmp")
            assert read_file(base, "final") == data

        run_sim(main)

    def test_delete_drops_segment_everywhere(self):
        def main():
            base = MemEnv()
            tier = make_tier(base)
            env = tier.env
            write_file(env, "seg", b"x" * 100, sync=True)
            tier.drain_barrier()
            env.delete_file("seg")
            assert not env.file_exists("seg")
            assert not base.file_exists("seg")
            assert tier.stats.dirty_bytes == 0
            with pytest.raises(NotFoundError):
                env.delete_file("seg")

        run_sim(main)

    def test_get_children_unions_device_and_base(self):
        def main():
            base = MemEnv()
            tier = make_tier(base)
            env = tier.env
            write_file(env, "db/resident", b"x", sync=True)
            write_file(base, "db/pfs-only", b"y")
            names = env.get_children("db")
            assert names == ["pfs-only", "resident"]
            # the tier's own journal never leaks into listings
            assert ".bb" not in env.get_children("")

        run_sim(main)


class TestTierRecovery:
    def test_new_tier_over_dirty_device_requeues_and_drains(self):
        data = b"d" * 8192

        def main():
            base = MemEnv()
            tier = make_tier(base)
            write_file(tier.env, "seg", data, sync=True)
            tier.crash()  # node dies with the segment sealed, undrained
            with pytest.raises(SimulatedCrash):
                tier.env.new_writable_file("other")
            with pytest.raises(SimulatedCrash):
                tier.drain_barrier()
            assert not base.file_exists("seg")
            # restart: a fresh tier over the same device
            revived = BurstBufferTier(base, device=tier.device)
            assert revived.stats.segments_recovered == 1
            assert revived.segment_state("seg") is SegmentState.DIRTY
            report = revived.drain_barrier()
            assert report.completed
            assert read_file(base, "seg") == data
            assert read_file(revived.env, "seg") == data

        run_sim(main)

    def test_dram_tier_loses_unsynced_work_on_crash(self):
        def main():
            base = MemEnv()
            tier = make_tier(base, persistent=False)
            write_file(tier.env, "seg", b"x" * 100, sync=True)
            tier.crash()
            revived = BurstBufferTier(base, device=tier.device)
            # DRAM: the crash lost the journal and every segment
            assert revived.stats.segments_recovered == 0
            assert not revived.env.file_exists("seg")

        run_sim(main)
