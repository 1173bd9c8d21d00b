"""Property-based model test: the DB must behave like a dict with appends.

The hypothesis stateful machine drives put/append/delete/flush/compact/
reopen and snapshot/release against an in-memory model and checks every
lookup and scan, at the head and at each live snapshot.  A second machine
runs the same rules over 16-128-byte blocks, where one key's chain of
versions spans data blocks and tables.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import NotFoundError
from repro.lsm import DB, MemEnv, Options, ReadOptions
from repro.lsm.db import Snapshot

KEY_NAMES = [f"key{i}".encode() for i in range(12)]
KEYS = st.sampled_from(KEY_NAMES)
VALUES = st.binary(max_size=48)


class DBModelMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.env = MemEnv()
        self.options = Options(
            write_buffer_size="2K",
            level0_file_num_compaction_trigger=3,
        )
        self.db = DB.open("db", self.options, env=self.env)
        self.model: dict[bytes, bytes] = {}
        # (live snapshot, the model as copied when it was taken)
        self.snapshots: list[tuple[Snapshot, dict[bytes, bytes]]] = []

    keys = Bundle("keys")

    @rule(target=keys, key=KEYS)
    def add_key(self, key):
        return key

    @rule(key=keys, value=VALUES)
    def put(self, key, value):
        self.db.put(key, value)
        self.model[key] = value

    @rule(key=keys, value=VALUES)
    def append(self, key, value):
        self.db.append(key, value)
        self.model[key] = self.model.get(key, b"") + value

    @rule(key=keys)
    def delete(self, key):
        self.db.delete(key)
        self.model.pop(key, None)

    @rule()
    def flush(self):
        self.db.flush()

    @rule()
    def compact(self):
        self.db.compact_range()

    @rule()
    def reopen(self):
        self.release_all()
        self.db.close()
        self.db = DB.open("db", self.options, env=self.env)

    @rule()
    def snapshot(self):
        self.snapshots.append((self.db.snapshot(), dict(self.model)))

    @precondition(lambda self: self.snapshots)
    @rule(data=st.data())
    def release(self, data):
        index = data.draw(st.integers(0, len(self.snapshots) - 1))
        snap, _ = self.snapshots.pop(index)
        snap.release()

    def release_all(self):
        while self.snapshots:
            self.snapshots.pop()[0].release()

    def views(self):
        """(read options, expected contents): the head, then each snapshot."""
        yield ReadOptions(), self.model
        for snap, frozen in self.snapshots:
            yield ReadOptions(snapshot=snap), frozen

    @rule(key=keys)
    def check_get(self, key):
        self.assert_get(key)

    def assert_get(self, key):
        for read_options, expected in self.views():
            if key in expected:
                assert self.db.get(key, read_options) == expected[key]
            else:
                try:
                    self.db.get(key, read_options)
                    raise AssertionError(f"{key!r} should be absent")
                except NotFoundError:
                    pass

    @invariant()
    def scan_matches_model(self):
        for read_options, expected in self.views():
            assert dict(self.db.iterate(read_options=read_options)) == expected

    def teardown(self):
        self.release_all()
        self.db.close()


class SmallBlockDBModelMachine(DBModelMachine):
    """The same rules over blocks small enough that chains cross them.

    At 16-128 bytes a block holds a few entries at most, so a key's
    put/append/delete chain, read newest first, runs across data blocks
    (and, after flushes, across tables); a restart interval of 1 or 2
    also puts restart points inside the chain.  Every key is looked up
    after every step, so a chain is read while it still spans blocks,
    before a compaction folds it.
    """

    @initialize(
        block_size=st.sampled_from([16, 64, 128]),
        restart_interval=st.sampled_from([1, 2, 16]),
    )
    def small_blocks(self, block_size, restart_interval):
        self.db.close()
        self.env = MemEnv()
        self.options = Options(
            write_buffer_size="2K",
            level0_file_num_compaction_trigger=3,
            block_size=block_size,
            block_restart_interval=restart_interval,
        )
        self.db = DB.open("db", self.options, env=self.env)

    @rule(key=DBModelMachine.keys, values=st.lists(VALUES, min_size=2, max_size=6))
    def append_run(self, key, values):
        """Several operands in a row, flushed: one table holds the chain."""
        for value in values:
            self.append(key, value)
        self.db.flush()

    @invariant()
    def gets_match_model(self):
        for key in KEY_NAMES:
            self.assert_get(key)


# A quarter of the loaded profile's examples each: 25 by default, ten
# times that under ``--hypothesis-profile=ci`` (tests/conftest.py).
_MODEL_SETTINGS = settings(
    max_examples=settings.default.max_examples // 4,
    stateful_step_count=30,
    deadline=None,
)
TestDBModel = DBModelMachine.TestCase
TestDBModel.settings = _MODEL_SETTINGS
TestSmallBlockDBModel = SmallBlockDBModelMachine.TestCase
TestSmallBlockDBModel.settings = _MODEL_SETTINGS


def test_model_quick_deterministic():
    """A fixed interleaving exercising every transition at least once."""
    env = MemEnv()
    options = Options(write_buffer_size="1K", level0_file_num_compaction_trigger=2)
    db = DB.open("db", options, env=env)
    model: dict[bytes, bytes] = {}

    def put(k, v):
        db.put(k, v)
        model[k] = v

    def append(k, v):
        db.append(k, v)
        model[k] = model.get(k, b"") + v

    def delete(k):
        db.delete(k)
        model.pop(k, None)

    for i in range(40):
        put(f"k{i % 7}".encode(), bytes([i]) * (i % 50))
        if i % 3 == 0:
            append(f"k{i % 5}".encode(), b"+")
        if i % 11 == 0:
            delete(f"k{i % 7}".encode())
        if i % 13 == 0:
            db.flush()
        if i % 17 == 0:
            db.compact_range()
        if i % 19 == 0:
            db.close()
            db = DB.open("db", options, env=env)
    assert dict(db.iterate()) == model
    for key, value in model.items():
        assert db.get(key) == value
    db.close()
