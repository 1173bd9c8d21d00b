"""Tests for the MemTable's ordering, duplicate check, seek and accounting.

How a key's versions resolve is the shared resolver's job and is tested in
``test_iterator.py``; here the memtable only has to hold rows in
internal-key order whatever order they are inserted in.
"""

import random
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lsm.dbformat import (
    ValueType,
    decode_internal_key,
    internal_key_user_key,
    seek_key,
    seek_order,
    sort_key,
)
from repro.lsm.memtable import MemTable

#: insert orders the properties must hold under: checkpoint keys arrive
#: ascending (every insert appends); the others force bisected inserts
INSERT_ORDERS = {
    "ascending": sorted,
    "descending": lambda updates: sorted(updates, reverse=True),
    "random": lambda updates: random.Random(7).sample(updates, len(updates)),
}

UPDATES = st.sets(
    st.tuples(st.binary(max_size=6), st.integers(min_value=0, max_value=50)),
    max_size=120,
)


def build(updates):
    """A memtable holding one VALUE per (user key, sequence)."""
    mem = MemTable()
    for user_key, sequence in updates:
        mem.add(sequence, ValueType.VALUE, user_key, b"%d" % sequence)
    return mem


def model_order(updates):
    """(user key, sequence) pairs in internal-key order, spelled out."""
    return sorted(updates, key=lambda u: (u[0], -u[1]))


def versions(pairs):
    return [
        (p.user_key, p.sequence)
        for p in (decode_internal_key(ikey) for ikey, _ in pairs)
    ]


def test_empty():
    mem = MemTable()
    assert len(mem) == 0
    assert list(mem.entries()) == []
    assert list(mem.seek(seek_key(b""))) == []
    assert mem.smallest_key() is None
    assert mem.largest_key() is None


def test_entries_sorted_by_internal_key():
    mem = MemTable()
    mem.add(1, ValueType.VALUE, b"b", b"")
    mem.add(2, ValueType.VALUE, b"a", b"")
    mem.add(3, ValueType.VALUE, b"a", b"")
    # user key "a" first; within "a", seq 3 (newer) before seq 2.
    assert versions(mem.entries()) == [(b"a", 3), (b"a", 2), (b"b", 1)]


def test_entries_carry_values_in_key_order():
    mem = MemTable()
    for sequence, user_key in enumerate([b"m", b"a", b"z", b"c"], start=1):
        mem.add(sequence, ValueType.VALUE, user_key, b"v-" + user_key)
    assert [
        (internal_key_user_key(ikey), value) for ikey, value in mem.entries()
    ] == [(b"a", b"v-a"), (b"c", b"v-c"), (b"m", b"v-m"), (b"z", b"v-z")]


def test_seek_lands_on_key_only_if_present():
    # A point read seeks to the newest version of its key and looks at the
    # first row: it must carry that user key exactly when the key is held.
    mem = MemTable()
    mem.add(1, ValueType.VALUE, b"k", b"")
    first = next(mem.seek(seek_key(b"k")))
    assert internal_key_user_key(first[0]) == b"k"
    for absent in (b"j", b"k\x00"):
        row = next(mem.seek(seek_key(absent)), None)
        assert row is None or internal_key_user_key(row[0]) != absent


def test_seek_positions_at_internal_key():
    mem = MemTable()
    mem.add(1, ValueType.VALUE, b"a", b"1")
    mem.add(2, ValueType.VALUE, b"c", b"3")
    found = list(mem.seek(seek_key(b"b")))
    assert len(found) == 1
    assert found[0][1] == b"3"


def test_memory_usage_grows():
    mem = MemTable()
    before = mem.approximate_memory_usage()
    mem.add(1, ValueType.VALUE, b"key", b"x" * 1000)
    assert mem.approximate_memory_usage() >= before + 1000


def test_smallest_largest():
    mem = MemTable()
    assert mem.smallest_key() is None
    mem.add(1, ValueType.VALUE, b"m", b"")
    mem.add(2, ValueType.VALUE, b"a", b"")
    mem.add(3, ValueType.VALUE, b"z", b"")
    assert internal_key_user_key(mem.smallest_key()) == b"a"
    assert internal_key_user_key(mem.largest_key()) == b"z"


def test_smallest_largest_order_versions_newest_first():
    # Within one user key the newest version sorts first, so the smallest
    # row is the newest "a" and the largest the oldest "z".
    mem = MemTable()
    for sequence, user_key in [(1, b"a"), (5, b"a"), (9, b"z"), (2, b"z")]:
        mem.add(sequence, ValueType.VALUE, user_key, b"")
    assert decode_internal_key(mem.smallest_key())[:2] == (b"a", 5)
    assert decode_internal_key(mem.largest_key())[:2] == (b"z", 2)


@pytest.mark.parametrize("order", INSERT_ORDERS.values(), ids=INSERT_ORDERS.keys())
class TestInsertOrders:
    @given(updates=UPDATES)
    def test_entries_match_sorted_model(self, order, updates):
        mem = build(order(list(updates)))
        expected = model_order(updates)
        assert versions(mem.entries()) == expected
        assert len(mem) == len(expected)

    @given(updates=UPDATES.filter(bool))
    def test_smallest_largest_match_model(self, order, updates):
        mem = build(order(list(updates)))
        expected = model_order(updates)
        assert decode_internal_key(mem.smallest_key())[:2] == expected[0]
        assert decode_internal_key(mem.largest_key())[:2] == expected[-1]

    @given(
        updates=UPDATES,
        probe_key=st.binary(max_size=6),
        probe_seq=st.integers(min_value=0, max_value=50),
    )
    def test_seek_matches_model(self, order, updates, probe_key, probe_seq):
        mem = build(order(list(updates)))
        expected = [
            (u, s)
            for u, s in model_order(updates)
            if (u, -s) >= (probe_key, -probe_seq)
        ]
        assert versions(mem.seek(seek_key(probe_key, probe_seq))) == expected

    @given(
        updates=UPDATES,
        probe_key=st.binary(max_size=6),
        probe_seq=st.integers(min_value=0, max_value=50),
    )
    def test_point_versions_match_model(self, order, updates, probe_key, probe_seq):
        mem = build(order(list(updates)))
        expected = [
            (u, s)
            for u, s in model_order(updates)
            if u == probe_key and s <= probe_seq
        ]
        bound = seek_order(probe_key, probe_seq)
        assert versions(mem.versions(probe_key, bound)) == expected

    def test_seek_returns_suffix(self, order):
        mem = build(order([(b"a", 1), (b"c", 2), (b"e", 3)]))
        assert versions(mem.seek(seek_key(b"b"))) == [(b"c", 2), (b"e", 3)]
        assert versions(mem.seek(seek_key(b"c"))) == [(b"c", 2), (b"e", 3)]
        assert versions(mem.seek(seek_key(b"f"))) == []
        assert len(list(mem.seek(seek_key(b"")))) == 3

    def test_duplicate_rejected(self, order):
        updates = order([(b"k%d" % i, i) for i in range(10)])
        mem = build(updates)
        before = list(mem.entries())
        for user_key, sequence in updates:
            with pytest.raises(ValueError):
                mem.add(sequence, ValueType.VALUE, user_key, b"again")
        assert list(mem.entries()) == before

    def test_large_insert_stays_sorted(self, order):
        # Far more rows than the hypothesis properties build, so inserts
        # bisect into a long list.
        updates = order([(b"%05d" % ((i * 7919) % 10007), 1) for i in range(5000)])
        mem = build(updates)
        assert versions(mem.entries()) == sorted(updates)
        assert len(mem) == 5000

    def test_interior_inserts_then_appends(self, order):
        mem = MemTable()
        evens = [(b"%04d" % i, 1) for i in range(0, 600, 2)]
        odds = [(b"%04d" % i, 1) for i in range(599, 0, -2)]
        tail = [(b"%04d" % i, 1) for i in range(600, 660)]
        for user_key, sequence in order(evens) + order(odds) + tail:
            mem.add(sequence, ValueType.VALUE, user_key, b"")
        expected = [(b"%04d" % i, 1) for i in range(660)]
        assert versions(mem.entries()) == expected
        assert versions(mem.seek(seek_key(b"0595"))) == expected[595:]


def test_duplicate_of_last_row_rejected():
    mem = MemTable()
    mem.add(1, ValueType.VALUE, b"a", b"")
    mem.add(2, ValueType.VALUE, b"b", b"")
    with pytest.raises(ValueError):
        mem.add(2, ValueType.VALUE, b"b", b"")  # equals the last row
    assert versions(mem.entries()) == [(b"a", 1), (b"b", 2)]


def test_seek_sees_rows_added_ahead_of_a_suspended_walk():
    # The DB walks the live memtable outside its lock, so inserts land
    # between steps: a row ahead of the walk is seen, one behind is not,
    # and no row is yielded twice.
    mem = build([(b"b", 1), (b"d", 2), (b"f", 3)])
    walk = mem.seek(seek_key(b""))
    assert versions([next(walk)]) == [(b"b", 1)]
    mem.add(4, ValueType.VALUE, b"a", b"")  # behind the walk
    mem.add(5, ValueType.VALUE, b"c", b"")  # ahead of it
    assert versions([next(walk)]) == [(b"c", 5)]
    mem.add(6, ValueType.VALUE, b"b", b"")  # behind again
    assert versions(walk) == [(b"d", 2), (b"f", 3)]


def test_concurrent_walks_stay_ordered_while_a_writer_inserts():
    # One writer (the DB serializes writers) and lock-free readers: every
    # walk must be strictly ascending and at least as long as the table
    # was when it started, however the threads interleave.
    mem = build([(b"%05d" % i, 1) for i in range(0, 2000, 2)])
    inserts = random.Random(3).sample(range(1, 2000, 2), 1000)
    failures = []
    stop = threading.Event()

    def writer():
        for i in inserts:
            mem.add(1, ValueType.VALUE, b"%05d" % i, b"")
        stop.set()

    def reader():
        while not stop.is_set():
            rows_before = len(mem)
            keys = [sort_key(ikey) for ikey, _ in mem.seek(seek_key(b""))]
            if keys != sorted(set(keys)) or len(keys) < rows_before:
                failures.append(keys)
                return

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert len(mem) == 2000


def test_concurrent_point_reads_take_each_version_once():
    # New versions of the key land ahead of a point read's position and
    # other keys land before it, shifting the rows under the walk: every
    # read must still list each version once, newest first, and at least
    # the versions that existed when it started.
    mem = MemTable()
    mem.add(1, ValueType.VALUE, b"hot", b"")
    written = [1]  # versions of b"hot" inserted so far
    failures = []
    stop = threading.Event()

    def writer():
        for seq in range(2, 1500):
            mem.add(seq, ValueType.VALUE, b"hot", b"")
            mem.add(seq, ValueType.VALUE, b"a%05d" % seq, b"")
            written[0] = seq
        stop.set()

    def reader():
        bound = seek_order(b"hot")
        while not stop.is_set():
            known = written[0]
            seqs = [
                decode_internal_key(ikey).sequence
                for ikey, _ in mem.versions(b"hot", bound)
            ]
            if seqs != sorted(set(seqs), reverse=True) or len(seqs) < known:
                failures.append(seqs)
                return

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert len(mem.versions(b"hot", seek_order(b"hot"))) == 1499
