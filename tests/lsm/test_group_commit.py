"""Group-commit semantics: batch merging, sequencing, concurrency, errors.

The stack's one group commit is the LSMIO manager's accumulation batch:
many operations merged into one ``WriteBatch`` that :meth:`DB.write`
commits as one WAL record and one memtable apply.  These tests pin down
the merge semantics (operation ordering, sequence assignment,
tombstone/merge interleavings, per-member CPU-charge segmentation) and
the commit path itself: concurrent writers, real threads or sim
processes, serialize on the DB lock with every batch applied atomically,
and a failed commit fails only its own writer.
"""

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sim
from repro.errors import NotFoundError, OstUnavailableError
from repro.lsm import DB, MemEnv, Options, WriteBatch
from repro.lsm.batch import _HEADER_SIZE
from repro.lsm.db import log_file_name
from repro.lsm.dbformat import ValueType, decode_internal_key
from repro.lsm.wal import LogReader


def mem_db(**opts):
    defaults = dict(write_buffer_size="256K")
    defaults.update(opts)
    return DB.open("db", Options(**defaults), env=MemEnv())


def state(db):
    """The user-visible key/value mapping."""
    return dict(db.iterate())


def batch_of(ops):
    batch = WriteBatch()
    for kind, key, value in ops:
        if kind == "put":
            batch.put(key, value)
        elif kind == "merge":
            batch.merge(key, value)
        else:
            batch.delete(key)
    return batch


class TestMergeFrom:
    def test_preserves_enqueue_order(self):
        a = batch_of([("put", b"x", b"1"), ("delete", b"y", b"")])
        b = batch_of([("merge", b"x", b"2"), ("put", b"z", b"3")])
        a.merge_from(b)
        assert list(a.items()) == [
            (ValueType.VALUE, b"x", b"1"),
            (ValueType.DELETE, b"y", b""),
            (ValueType.MERGE, b"x", b"2"),
            (ValueType.VALUE, b"z", b"3"),
        ]

    def test_sizes_are_additive(self):
        a = batch_of([("put", b"k1", b"v" * 100)])
        b = batch_of([("merge", b"k2", b"w" * 50), ("delete", b"k3", b"")])
        size_a, size_b = a.approximate_size, b.approximate_size
        payload = a.payload_bytes + b.payload_bytes
        a.merge_from(b)
        assert a.approximate_size == size_a + size_b - _HEADER_SIZE
        assert a.payload_bytes == payload
        assert len(a) == 3

    def test_charge_segments_match_members(self):
        # A merged group must charge modeled CPU per constituent batch,
        # in order — that keeps simulated timings identical to committing
        # the members individually (the fig5 bit-identity guarantee).
        a = batch_of([("put", b"k1", b"v" * 64)])
        b = batch_of([("put", b"k2", b"v" * 256), ("merge", b"k2", b"x")])
        c = batch_of([("delete", b"k1", b"")])
        expected = [
            a.approximate_size,
            b.approximate_size,
            c.approximate_size,
        ]
        a.merge_from(b)
        a.merge_from(c)
        assert a.charge_sizes() == expected

    def test_merged_apply_equals_serial_apply(self):
        def make_batches():
            return [
                batch_of([("put", b"k", b"v1"), ("put", b"other", b"o")]),
                batch_of([("delete", b"k", b""), ("merge", b"k", b"m1")]),
                batch_of([("merge", b"k", b"m2")]),
            ]

        serial = mem_db()
        for batch in make_batches():
            serial.write(batch)

        merged_db = mem_db()
        first, *rest = make_batches()
        for follower in rest:
            first.merge_from(follower)
        merged_db.write(first)

        assert state(merged_db) == state(serial) == {b"k": b"m1m2", b"other": b"o"}
        serial.close()
        merged_db.close()


class TestSequencing:
    def test_merged_group_consumes_one_sequence_per_op(self):
        db = mem_db()
        before = db._versions.last_sequence
        merged = batch_of([("put", b"a", b"1"), ("put", b"b", b"2")])
        merged.merge_from(batch_of([("put", b"c", b"3")]))
        db.write(merged)
        assert db._versions.last_sequence == before + 3
        db.close()

    def test_snapshot_isolates_mid_group_state(self):
        # A snapshot taken between two commits sees the first group's
        # sequence ceiling, never a partially applied group.
        db = mem_db()
        db.write(batch_of([("put", b"k", b"old"), ("put", b"j", b"1")]))
        snap = db.snapshot()
        merged = batch_of([("put", b"k", b"new")])
        merged.merge_from(batch_of([("delete", b"j", b"")]))
        db.write(merged)
        from repro.lsm.options import ReadOptions

        assert db.get(b"k", ReadOptions(snapshot=snap)) == b"old"
        assert db.get(b"j", ReadOptions(snapshot=snap)) == b"1"
        assert db.get(b"k") == b"new"
        with pytest.raises(NotFoundError):
            db.get(b"j")
        snap.release()
        db.close()


class TestInterleavings:
    """Tombstone + merge interleavings across merged batch boundaries."""

    def test_delete_then_merge_restarts_value(self):
        db = mem_db()
        db.put(b"k", b"base")
        merged = batch_of([("delete", b"k", b"")])
        merged.merge_from(batch_of([("merge", b"k", b"x"), ("merge", b"k", b"y")]))
        db.write(merged)
        assert db.get(b"k") == b"xy"
        db.close()

    def test_merge_then_delete_leaves_tombstone(self):
        db = mem_db()
        db.put(b"k", b"base")
        merged = batch_of([("merge", b"k", b"x")])
        merged.merge_from(batch_of([("delete", b"k", b"")]))
        db.write(merged)
        with pytest.raises(NotFoundError):
            db.get(b"k")
        db.close()

    def test_put_shadows_earlier_members(self):
        merged = batch_of([("put", b"k", b"first"), ("merge", b"k", b"+t")])
        merged.merge_from(batch_of([("put", b"k", b"second")]))
        db = mem_db()
        db.write(merged)
        assert db.get(b"k") == b"second"
        db.close()


_op = st.tuples(
    st.sampled_from(["put", "merge", "delete"]),
    st.binary(min_size=1, max_size=8),
    st.binary(max_size=32),
)


class TestGroupCommitEquivalence:
    # Half the loaded profile's examples: 50 by default, ten times that
    # under ``--hypothesis-profile=ci`` (tests/conftest.py).
    @settings(max_examples=settings.default.max_examples // 2, deadline=None)
    @given(st.lists(st.lists(_op, min_size=1, max_size=6), min_size=1, max_size=6))
    def test_group_commit_equals_serial_application(self, groups):
        """Merging N batches and committing once ≡ committing them in order."""
        serial = mem_db()
        for ops in groups:
            serial.write(batch_of(ops))

        grouped = mem_db()
        merged = batch_of(groups[0])
        for ops in groups[1:]:
            merged.merge_from(batch_of(ops))
        grouped.write(merged)

        try:
            assert state(grouped) == state(serial)
        finally:
            serial.close()
            grouped.close()


def _spawn_writer(db, batches, errors):
    def run():
        try:
            for batch in batches:
                db.write(batch)
        except Exception as exc:  # noqa: BLE001 — collected for assertions
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def _writer_batches(writer, batches, ops):
    """``batches`` batches of ``ops`` puts each, keyed by writer/batch/op."""
    return [
        batch_of(
            [("put", b"w%d.b%03d.op%d" % (writer, b, op), b"v%d" % op)
             for op in range(ops)]
        )
        for b in range(batches)
    ]


def _wal_records(db):
    """(batch, first sequence) of every record in the live WAL."""
    path = db.env.join(db.name, log_file_name(db._wal_number))  # noqa: SLF001
    reader = LogReader(db.env.new_sequential_file(path))
    try:
        return [WriteBatch.deserialize(record) for record in reader]
    finally:
        reader.close()


def _assert_batches_atomic(db, writers, batches, ops):
    """Each batch is one WAL record and holds consecutive sequences."""
    seqs = {}
    for ikey, _ in db._mem.entries():  # noqa: SLF001
        parsed = decode_internal_key(ikey)
        seqs[parsed.user_key] = parsed.sequence
    assert len(seqs) == writers * batches * ops
    for w in range(writers):
        for b in range(batches):
            run = [seqs[b"w%d.b%03d.op%d" % (w, b, op)] for op in range(ops)]
            assert run == list(range(run[0], run[0] + ops)), (w, b, run)
    assert sorted(seqs.values()) == list(range(1, len(seqs) + 1))
    records = _wal_records(db)
    assert len(records) == writers * batches
    for batch, sequence in records:
        keys = [key for _, key, _ in batch.items()]
        prefix = keys[0].rsplit(b".", 1)[0]
        assert keys == [b"%s.op%d" % (prefix, op) for op in range(ops)]
        assert sequence == seqs[keys[0]]


class _CommitProbe:
    """A ``cpu_charge`` hook that parks mid-commit and counts overlaps.

    Each test batch is one charge segment, so one call is one commit.
    ``peak`` is the most commits ever inside the hook at once; with
    ``lock`` set to a sim-world ``DB._lock``, ``contended`` counts calls
    made while another process waited on that lock.
    """

    def __init__(self, park):
        self.park = park
        self.lock = None
        self.inside = 0
        self.peak = 0
        self.contended = 0

    def __call__(self, nbytes, kind):
        self.inside += 1
        self.peak = max(self.peak, self.inside)
        if self.lock is not None and self.lock._sim_waiters:  # noqa: SLF001
            self.contended += 1
        self.park()
        self.inside -= 1


class TestConcurrentWriters:
    """Writers share the one commit path, serialized by ``DB._lock``."""

    WRITERS, BATCHES, OPS = 4, 25, 5

    def test_real_threads_commit_each_batch_atomically(self):
        # The CPU hook sleeps mid-commit with the lock held, so the
        # other threads pile up on the lock; none may enter the commit.
        probe = _CommitProbe(lambda: time.sleep(1e-4))
        db = mem_db(cpu_charge=probe)
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                _spawn_writer(
                    db, _writer_batches(w, self.BATCHES, self.OPS), errors
                )
                for w in range(self.WRITERS)
            ]
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert probe.peak == 1
        _assert_batches_atomic(db, self.WRITERS, self.BATCHES, self.OPS)
        for w in range(self.WRITERS):
            for b in range(self.BATCHES):
                for op in range(self.OPS):
                    assert db.get(b"w%d.b%03d.op%d" % (w, b, op)) == b"v%d" % op
        assert db.stats.writes == self.WRITERS * self.BATCHES * self.OPS
        assert db.stats.wal_records == self.WRITERS * self.BATCHES
        db.close()

    def test_sim_processes_contend_on_the_lock(self):
        # Two sim processes, one DB: the CPU charge parks the committing
        # process in simulated time with the lock held, so the other one
        # must wait on the lock's sim event rather than block a thread.
        writers = 2
        probe = _CommitProbe(lambda: sim.sleep(1e-6))
        db = mem_db(cpu_charge=probe)
        probe.lock = db._lock  # noqa: SLF001

        def writer(w):
            for batch in _writer_batches(w, self.BATCHES, self.OPS):
                db.write(batch)

        with sim.Engine() as engine:
            procs = [engine.spawn(writer, w) for w in range(writers)]
            engine.run()
        assert all(not proc.alive for proc in procs)
        assert probe.contended > 0, "writers never contended on the lock"
        assert probe.peak == 1
        _assert_batches_atomic(db, writers, self.BATCHES, self.OPS)
        assert db.stats.writes == writers * self.BATCHES * self.OPS
        assert db.stats.wal_records == writers * self.BATCHES
        db.close()


class TestFailedCommit:
    def test_failure_raises_in_its_own_writer_only(self):
        db = mem_db()
        real_commit = db._commit  # noqa: SLF001

        def sabotage(batch, write_options):
            if any(key.startswith(b"w1.") for _, key, _ in batch.items()):
                raise OstUnavailableError("ost0003 unavailable")
            real_commit(batch, write_options)

        db._commit = sabotage  # noqa: SLF001
        errors = {w: [] for w in range(3)}
        threads = [
            _spawn_writer(db, _writer_batches(w, 1, 3), errors[w])
            for w in range(3)
        ]
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()

        assert errors[0] == [] and errors[2] == []
        assert len(errors[1]) == 1
        assert isinstance(errors[1][0], OstUnavailableError)
        for op in range(3):
            assert db.get(b"w0.b000.op%d" % op) == b"v%d" % op
            assert db.get(b"w2.b000.op%d" % op) == b"v%d" % op
            with pytest.raises(NotFoundError):
                db.get(b"w1.b000.op%d" % op)

        # The DB accepts writes again once healed.
        del db._commit  # noqa: SLF001 — restore the class method
        db.put(b"after", b"ok")
        assert db.get(b"after") == b"ok"
        db.close()
