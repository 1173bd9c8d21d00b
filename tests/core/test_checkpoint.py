"""Unit tests for the crash-consistent Checkpointer and its report type."""

import numpy as np
import pytest

from repro.core import Checkpointer, DegradedWriteReport, LsmioManager, LsmioOptions
from repro.errors import CorruptionError, NotFoundError
from repro.lsm import MemEnv


@pytest.fixture
def manager():
    manager = LsmioManager(
        "db", options=LsmioOptions(write_buffer_size="1M"), env=MemEnv()
    )
    yield manager
    manager.close()


class CountingGets:
    """A manager proxy that records the key of every ``get``."""

    def __init__(self, manager):
        self._manager = manager
        self.keys = []

    def get(self, key):
        self.keys.append(key)
        return self._manager.get(key)

    def __getattr__(self, name):
        return getattr(self._manager, name)


def state_for(epoch):
    return {
        "field": np.arange(16, dtype=np.float64) * epoch,
        "step": epoch,
        "tag": f"epoch-{epoch}",
    }


class TestSaveLoad:
    def test_roundtrip(self, manager):
        ckpt = Checkpointer(manager)
        report = ckpt.save(1, state_for(1))
        assert report.completed and not report.degraded
        epoch, state = ckpt.load_latest()
        assert epoch == 1
        np.testing.assert_array_equal(state["field"], state_for(1)["field"])
        assert state["step"] == 1
        assert state["tag"] == "epoch-1"

    def test_epochs_accumulate_in_order(self, manager):
        ckpt = Checkpointer(manager)
        for epoch in (3, 1, 7):
            ckpt.save(epoch, state_for(epoch))
        assert ckpt.epochs() == [1, 3, 7]
        epoch, _ = ckpt.load_latest()
        assert epoch == 7

    def test_load_specific_epoch(self, manager):
        ckpt = Checkpointer(manager)
        ckpt.save(1, state_for(1))
        ckpt.save(2, state_for(2))
        _, state = ckpt.load_latest()
        assert state["step"] == 2
        assert ckpt.load(1)["step"] == 1

    def test_empty_state_rejected(self, manager):
        with pytest.raises(NotFoundError):
            Checkpointer(manager).save(1, {})

    def test_no_epochs_raises(self, manager):
        ckpt = Checkpointer(manager)
        assert ckpt.epochs() == []
        with pytest.raises(NotFoundError):
            ckpt.load_latest()

    def test_prefixes_are_isolated(self, manager):
        a = Checkpointer(manager, prefix="jobA")
        b = Checkpointer(manager, prefix="jobB")
        a.save(1, state_for(1))
        assert b.epochs() == []
        with pytest.raises(NotFoundError):
            b.load_latest()


class TestCommitProtocol:
    def test_uncommitted_epoch_is_invisible(self, manager):
        """An epoch with data but no commit marker (a crash between the
        two barriers) is not listed and not loaded."""
        ckpt = Checkpointer(manager)
        ckpt.save(1, state_for(1))
        # Write epoch 2's data exactly as save() would, then "crash"
        # before the commit phase.
        from repro.core.serialization import serialize_value

        manager.put("ckpt/00000002/data/field", serialize_value(np.ones(4)))
        manager.put("ckpt/00000002/manifest", serialize_value({}))
        manager.write_barrier()
        assert ckpt.epochs() == [1]
        epoch, _ = ckpt.load_latest()
        assert epoch == 1
        with pytest.raises(NotFoundError):
            ckpt.verify(2)

    def test_corrupt_block_detected_and_skipped(self, manager):
        """Bitrot in a committed epoch fails CRC verification; the loader
        falls back to the previous complete epoch."""
        ckpt = Checkpointer(manager)
        ckpt.save(1, state_for(1))
        ckpt.save(2, state_for(2))
        # Corrupt epoch 2's field block in place (same key, new bytes).
        manager.put("ckpt/00000002/data/field", b"\xde\xad\xbe\xef")
        manager.write_barrier()
        with pytest.raises(CorruptionError):
            ckpt.verify(2)
        epoch, state = ckpt.load_latest()
        assert epoch == 1
        assert state["step"] == 1

    def test_same_length_bitflip_falls_back(self, manager):
        """A tampered block of unchanged length is caught by the CRC alone
        on the single-read restore path."""
        ckpt = Checkpointer(manager)
        ckpt.save(1, state_for(1))
        ckpt.save(2, state_for(2))
        key = "ckpt/00000002/data/field"
        raw = bytearray(manager.get(key))
        raw[-1] ^= 0x01
        manager.put(key, bytes(raw))
        manager.write_barrier()
        with pytest.raises(CorruptionError):
            ckpt.load(2)
        epoch, state = ckpt.load_latest()
        assert epoch == 1
        np.testing.assert_array_equal(state["field"], state_for(1)["field"])

    def test_load_reads_each_block_once(self, manager):
        counting = CountingGets(manager)
        ckpt = Checkpointer(counting)
        ckpt.save(1, state_for(1))
        counting.keys.clear()
        ckpt.load(1)
        # commit marker + manifest + one get per block
        assert len(counting.keys) == 2 + len(state_for(1))
        assert len(set(counting.keys)) == len(counting.keys)

    def test_load_latest_reads_only_the_newest_epoch(self, manager):
        counting = CountingGets(manager)
        ckpt = Checkpointer(counting)
        for epoch in range(16):
            ckpt.save(epoch, state_for(epoch))
        counting.keys.clear()
        epoch, state = ckpt.load_latest()
        assert epoch == 15 and state["step"] == 15
        assert counting.keys[:3] == [
            "ckpt/index", "ckpt/00000015/commit", "ckpt/00000015/manifest"
        ]
        assert sorted(counting.keys[3:]) == [
            f"ckpt/00000015/data/{name}" for name in sorted(state_for(15))
        ]

    def test_indexed_epoch_without_commit_marker_is_skipped(self, manager):
        """An index entry whose commit marker never landed is neither
        listed nor loaded."""
        from repro.core.serialization import serialize_value

        ckpt = Checkpointer(manager)
        ckpt.save(1, state_for(1))
        manager.put("ckpt/00000002/manifest", serialize_value({}))
        manager.append("ckpt/index", "2 ")
        manager.write_barrier()
        assert ckpt.epochs() == [1]
        epoch, _ = ckpt.load_latest()
        assert epoch == 1

    def test_all_epochs_corrupt_raises(self, manager):
        ckpt = Checkpointer(manager)
        ckpt.save(1, state_for(1))
        manager.put("ckpt/00000001/data/field", b"junk")
        manager.write_barrier()
        with pytest.raises(NotFoundError):
            ckpt.load_latest()

    def test_verify_reports_block_inventory(self, manager):
        ckpt = Checkpointer(manager)
        ckpt.save(5, state_for(5))
        info = ckpt.verify(5)
        assert info.epoch == 5
        assert set(info.blocks) == {"field", "step", "tag"}
        for length, crc in info.blocks.values():
            assert length > 0
            assert 0 <= crc < 2**32


class TestDegradedWriteReport:
    def test_clean_report(self):
        report = DegradedWriteReport()
        assert report.completed and not report.degraded
        assert "clean" in report.summary()

    def test_degraded_and_failed_summaries(self):
        degraded = DegradedWriteReport(retries=3, backoff_time=0.5)
        assert degraded.degraded
        assert "3 retries" in degraded.summary()
        failed = DegradedWriteReport(
            completed=False, failed_osts=(1, 4), error="boom"
        )
        assert failed.degraded
        text = failed.summary()
        assert "FAILED" in text and "1, 4" in text and "boom" in text

    def test_merged_combines_phases(self):
        data = DegradedWriteReport(retries=2, timeouts=1, failed_osts=(0,))
        commit = DegradedWriteReport(
            completed=False, retries=1, backoff_time=0.25,
            failed_osts=(0, 2), error="late",
        )
        merged = data.merged(commit)
        assert merged.completed is False
        assert merged.retries == 3
        assert merged.timeouts == 1
        assert merged.backoff_time == 0.25
        assert merged.failed_osts == (0, 2)
        assert merged.error == "late"

    def test_save_or_report_on_healthy_store(self, manager):
        report = Checkpointer(manager).save_or_report(1, state_for(1))
        assert report.completed
