"""Stall-aware pacing: pressure curve, limiter boost, DB stall counters."""

from repro.io import Priority
from repro.io.scheduler import RateLimiter
from repro.lsm import DB, Options
from repro.lsm.compaction import CompactionStats
from repro.lsm.dbformat import ValueType, encode_internal_key
from repro.lsm.env import MemEnv
from repro.lsm.manifest import FileMetaData, Version
from repro.lsm.pacing import PACER_DEBT_BUFFERS, PACER_MAX_BOOST, CompactionPacer


def ikey(user_key: bytes) -> bytes:
    return encode_internal_key(user_key, 1, ValueType.VALUE)


def l0_version(files: int, size: int = 1 << 10) -> Version:
    version = Version(num_levels=7)
    for number in range(files):
        version.files[0].append(
            FileMetaData(
                number=number, file_size=size,
                smallest=ikey(b"a"), largest=ikey(b"z"),
            )
        )
    return version


def pacer_options(**overrides) -> Options:
    base = dict(
        level0_file_num_compaction_trigger=4,
        level0_slowdown_writes_trigger=8,
        level0_stop_writes_trigger=12,
        max_subcompactions=5,
        enable_compaction=True,
        compaction_pacing=True,
    )
    base.update(overrides)
    return Options(**base)


class StubScheduler:
    def __init__(self, limiter):
        self.limiter = limiter

    def class_limiter(self, priority):
        assert priority is Priority.COMPACTION
        return self.limiter


class TestPressure:
    def test_zero_below_trigger(self):
        pacer = CompactionPacer(pacer_options())
        pacer.observe(l0_version(3))
        assert pacer.pressure == 0.0
        assert pacer.fanout == 1
        assert pacer.write_delay() == 0.0

    def test_l0_ramp_and_quadratic_delay(self):
        options = pacer_options(slowdown_delay=1e-3)
        pacer = CompactionPacer(options)
        pacer.observe(l0_version(6))  # (6 - 4) / (8 - 4) = 0.5
        assert pacer.pressure == 0.5
        assert pacer.fanout == 1 + round(0.5 * 4)
        assert abs(pacer.write_delay() - 1e-3 * 0.25) < 1e-12

    def test_clamped_at_full_pressure(self):
        pacer = CompactionPacer(pacer_options())
        pacer.observe(l0_version(40))
        assert pacer.pressure == 1.0
        assert pacer.fanout == 5

    def test_debt_pressure_from_deep_levels(self):
        options = pacer_options(write_buffer_size=4 << 10)
        pacer = CompactionPacer(options)
        scale = PACER_DEBT_BUFFERS * options.write_buffer_size
        version = Version(num_levels=7)
        version.files[1].append(
            FileMetaData(
                number=1,
                file_size=options.max_bytes_for_level(1) + scale // 2,
                smallest=ikey(b"a"), largest=ikey(b"z"),
            )
        )
        assert pacer.compaction_debt(version) == scale // 2
        pacer.observe(version)
        assert abs(pacer.pressure - 0.5) < 0.01

    def test_l0_debt_counts_only_past_trigger(self):
        options = pacer_options(write_buffer_size=4 << 10)
        pacer = CompactionPacer(options)
        assert pacer.compaction_debt(l0_version(4)) == 0
        assert pacer.compaction_debt(l0_version(5, size=100)) == 500


class TestLimiterBoost:
    def test_rate_tracks_pressure_and_relaxes(self):
        stats = CompactionStats()
        limiter = RateLimiter(1000.0)
        pacer = CompactionPacer(
            pacer_options(), stats=stats, scheduler=StubScheduler(limiter)
        )
        pacer.observe(l0_version(12))  # full pressure
        assert limiter.rate == 1000.0 * PACER_MAX_BOOST
        assert stats.pacer_rate == limiter.rate
        assert stats.pacer_fanout == 5
        adjustments = stats.pacer_adjustments
        assert adjustments > 0

        pacer.observe(l0_version(0))   # pressure gone: back to base
        assert limiter.rate == 1000.0
        assert stats.pacer_adjustments > adjustments

        pacer.observe(l0_version(0))   # steady state: no adjustment
        assert stats.pacer_adjustments == adjustments + 1


class TestDbStallCounters:
    """Foreground writes hit the slowdown band and the bounded stop park
    when compaction cannot keep up (here: pinned off via _compacting)."""

    def test_slowdown_and_stop_paths_fire_without_deadlock(self, monkeypatch):
        monkeypatch.setattr(DB, "_STALL_POLL_INTERVAL", 1e-6)
        env = MemEnv()
        options = Options(
            write_buffer_size=256,
            level0_file_num_compaction_trigger=2,
            level0_slowdown_writes_trigger=3,
            level0_stop_writes_trigger=4,
            enable_compaction=True,
            compaction_pacing=True,
            slowdown_delay=1e-5,
        )
        db = DB.open("db", options=options, env=env)
        try:
            # Pin the single-compactor guard: flushes still install L0
            # files but no compaction drains them, so the write path
            # must walk slowdown -> stop and still terminate (bounded
            # stale-poll guard).
            db._compacting = True
            for i in range(24):
                db.put(f"key{i:03d}".encode(), b"v" * 200)
            stats = db.compaction_stats
            assert stats.slowdown_writes > 0
            assert stats.stop_writes > 0
            assert stats.stall_time > 0.0
            assert stats.pacer_adjustments > 0
            assert stats.pacer_delay_time > 0.0

            # Un-pin and drain: the DB recovers to a compacted shape and
            # reads see every write.
            db._compacting = False
            db.compact_range()
            assert db._versions.current.num_files(0) < 4
            for i in range(24):
                assert db.get(f"key{i:03d}".encode()) == b"v" * 200
        finally:
            db.close()

    def test_no_stall_accounting_when_compaction_disabled(self):
        env = MemEnv()
        db = DB.open(
            "db",
            options=Options(write_buffer_size=256, enable_compaction=False),
            env=env,
        )
        try:
            for i in range(24):
                db.put(f"key{i:03d}".encode(), b"v" * 200)
            stats = db.compaction_stats
            assert stats.slowdown_writes == 0
            assert stats.stop_writes == 0
            assert stats.stall_time == 0.0
        finally:
            db.close()
