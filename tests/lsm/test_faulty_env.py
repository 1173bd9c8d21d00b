"""Property tests for FaultyEnv: torn writes, lost tails, failed fsyncs.

FaultyEnv models node death the way LevelDB's FaultInjectionTestEnv does:
``crash()`` discards a seeded-random portion of every file's un-synced
tail (torn writes included), and ``fail_sync`` schedule entries make
chosen fsyncs raise.  These tests drive a real DB through it and assert
the engine's recovery invariants hold under every cut the strategy
explores: recovered state is always a clean *prefix* of the applied
operations — never garbage, never reordering.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotFoundError, StorageIOError
from repro.fault import FaultSchedule, FaultyEnv
from repro.lsm import DB, MemEnv, Options
from repro.lsm.options import WriteOptions


def open_db(env):
    return DB.open("db", Options(write_buffer_size="1M"), env=env)


class TestCrashSemantics:
    def test_synced_data_survives_a_crash(self):
        env = FaultyEnv(MemEnv(), seed=1)
        db = open_db(env)
        db.put(b"durable", b"yes", WriteOptions(sync=True))
        env.crash()  # process death; synced WAL bytes survive
        recovered = open_db(env)
        assert recovered.get(b"durable") == b"yes"
        recovered.close()

    def test_crash_releases_the_db_lock(self):
        env = FaultyEnv(MemEnv(), seed=1)
        db = open_db(env)
        db.put(b"k", b"v")
        env.crash()
        # reopening must not trip the advisory LOCK the dead process held
        recovered = open_db(env)
        recovered.close()

    def test_unsynced_tail_is_at_risk(self):
        """With a seed that cuts aggressively, un-synced puts vanish."""
        for seed in range(20):
            env = FaultyEnv(MemEnv(), seed=seed)
            db = open_db(env)
            db.put(b"k", b"v" * 1000)  # buffered in the WAL, never synced
            env.crash()
            recovered = open_db(env)
            try:
                value = recovered.get(b"k")
                assert value == b"v" * 1000  # survived intact or
            except NotFoundError:
                recovered.close()
                return  # ...was (correctly) torn away
            recovered.close()
        pytest.fail("no seed in 0..19 ever tore the un-synced tail")

    def test_append_owned_hands_the_buffer_to_the_base(self):
        env = FaultyEnv(MemEnv())
        owned = bytearray(b"owned bytes")
        with env.new_writable_file("f") as fh:
            fh.append_owned(owned)
        # The base keeps the caller's buffer itself: no second copy.
        assert env.base._files["f"].chunks[0] is owned
        # ...and the crash model counts its bytes as written, unsynced.
        assert env._files["f"].written == len(owned)

    def test_crash_is_deterministic_per_seed(self):
        def run(seed):
            env = FaultyEnv(MemEnv(), seed=seed)
            db = open_db(env)
            for i in range(30):
                db.put(f"k{i:03d}".encode(), bytes([i]) * 64)
            env.crash()
            recovered = open_db(env)
            state = dict(recovered.iterate())
            recovered.close()
            return state

        assert run(7) == run(7)


class TestFailSync:
    def test_fail_sync_at_raises_storage_io_error(self):
        schedule = FaultSchedule().fail_sync(at=1)
        env = FaultyEnv(MemEnv(), schedule=schedule)
        fh = env.new_writable_file("f")
        fh.append(b"data")
        with pytest.raises(StorageIOError):
            fh.sync()
        assert env.syncs_failed == 1
        fh.sync()  # only the first sync was scheduled to fail
        assert env.syncs_failed == 1

    def test_fail_sync_every(self):
        schedule = FaultSchedule().fail_sync(every=2)
        env = FaultyEnv(MemEnv(), schedule=schedule)
        fh = env.new_writable_file("f")
        fh.append(b"data")
        fh.sync()  # 1st: fine
        with pytest.raises(StorageIOError):
            fh.sync()  # 2nd: fails
        fh.sync()  # 3rd: fine
        assert env.syncs_failed == 1

    def test_failed_sync_leaves_tail_at_risk(self):
        """A failed fsync durably counts nothing as synced: a later
        crash may still lose bytes appended before the failed sync."""
        schedule = FaultSchedule().fail_sync(at=1)
        lost = False
        for seed in range(20):
            env = FaultyEnv(MemEnv(), schedule=schedule, seed=seed)
            fh = env.new_writable_file("f")
            fh.append(b"x" * 1000)
            with pytest.raises(StorageIOError):
                fh.sync()
            fh.close()
            env.crash()
            if env.base.file_size("f") < 1000:
                lost = True
                break
        assert lost, "failed-sync bytes were never treated as volatile"


class TestRecoveryProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),   # key id
                st.binary(min_size=1, max_size=200),     # value
            ),
            min_size=1,
            max_size=20,
        ),
        st.integers(min_value=0, max_value=2**31 - 1),   # crash seed
        st.booleans(),                                   # sync the WAL?
    )
    def test_recovery_is_an_operation_prefix(self, ops, seed, sync_wal):
        """Whatever the torn-write cut keeps, WAL replay yields a state
        equal to replaying some prefix of the operations."""
        env = FaultyEnv(MemEnv(), seed=seed)
        db = DB.open("db", Options(write_buffer_size="1M"), env=env)
        for key_id, value in ops:
            db.put(f"k{key_id}".encode(), value)
        if sync_wal:
            db._wal.sync()  # noqa: SLF001
        env.crash()

        recovered = DB.open("db", Options(write_buffer_size="1M"), env=env)
        state = dict(recovered.iterate())
        recovered.close()

        prefix_states = []
        model: dict[bytes, bytes] = {}
        prefix_states.append(dict(model))
        for key_id, value in ops:
            model[f"k{key_id}".encode()] = value
            prefix_states.append(dict(model))
        assert state in prefix_states
        if sync_wal:
            # everything reached the "OS" before the crash: full replay
            assert state == prefix_states[-1]

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(st.binary(min_size=1, max_size=500), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_flushed_sstables_survive_any_crash(self, values, seed):
        """Data flushed (and therefore synced) before the crash is never
        lost, whatever happens to the un-synced tail afterwards."""
        env = FaultyEnv(MemEnv(), seed=seed)
        db = DB.open("db", Options(write_buffer_size="32K"), env=env)
        for index, value in enumerate(values):
            db.put(f"flushed{index}".encode(), value)
        db.flush()  # memtable -> SSTable, synced
        db.put(b"tail", b"t" * 100)  # un-synced straggler
        env.crash()

        recovered = DB.open("db", Options(write_buffer_size="32K"), env=env)
        for index, value in enumerate(values):
            assert recovered.get(f"flushed{index}".encode()) == value
        recovered.close()
