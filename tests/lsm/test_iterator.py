"""Tests for merging iteration and version-chain resolution."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lsm.dbformat import ValueType, encode_internal_key
from repro.lsm.iterator import (
    MergingIterator,
    collapse_internal_entries,
    resolve_user_entries,
    resolve_versions,
)

VALUE, DELETE, MERGE = ValueType.VALUE, ValueType.DELETE, ValueType.MERGE


def ik(user_key, seq, vtype=ValueType.VALUE):
    return encode_internal_key(user_key, seq, vtype)


def chain_of(writes, user_key=b"k"):
    """The versions of ``writes`` (oldest first, sequences 1..n), newest first."""
    return [
        (ik(user_key, seq, vtype), value)
        for seq, (vtype, value) in reversed(list(enumerate(writes, start=1)))
    ]


#: one key's writes in order, and what a read of the key resolves to
CHAINS = {
    "empty_lookup_missing": ([], None),
    "put_then_get": ([(VALUE, b"v")], (VALUE, b"v")),
    "newest_version_wins": ([(VALUE, b"old"), (VALUE, b"new")], (VALUE, b"new")),
    "delete_shadows_value": ([(VALUE, b"v"), (DELETE, b"")], (DELETE, b"")),
    "value_after_delete_visible": (
        [(DELETE, b""), (VALUE, b"v2")],
        (VALUE, b"v2"),
    ),
    "append_chain_on_value": (
        [(VALUE, b"base"), (MERGE, b"-a"), (MERGE, b"-b")],
        (VALUE, b"base-a-b"),
    ),
    # The base, if any, lies below these versions: the caller keeps looking.
    "append_without_base_returns_merge_state": (
        [(MERGE, b"x"), (MERGE, b"y")],
        (MERGE, b"xy"),
    ),
    "append_after_delete_starts_fresh": (
        [(VALUE, b"gone"), (DELETE, b""), (MERGE, b"new")],
        (VALUE, b"new"),
    ),
}


class TestResolveVersions:
    @pytest.mark.parametrize(
        "writes, expected", CHAINS.values(), ids=CHAINS.keys()
    )
    def test_chain(self, writes, expected):
        assert resolve_versions(iter(chain_of(writes))) == expected

    def test_snapshot_bound_hides_newer_versions(self):
        writes = [
            (VALUE, b"base"),  # 1
            (MERGE, b"-a"),  # 2
            (DELETE, b""),  # 3
            (MERGE, b"-b"),  # 4
            (VALUE, b"new"),  # 5
        ]
        versions = chain_of(writes)
        assert resolve_versions(versions, max_sequence=0) is None
        assert resolve_versions(versions, max_sequence=1) == (VALUE, b"base")
        assert resolve_versions(versions, max_sequence=2) == (VALUE, b"base-a")
        assert resolve_versions(versions, max_sequence=3) == (DELETE, b"")
        assert resolve_versions(versions, max_sequence=4) == (VALUE, b"-b")
        assert resolve_versions(versions) == (VALUE, b"new")

    @given(
        writes=st.lists(
            st.tuples(st.sampled_from(ValueType), st.binary(max_size=3)),
            max_size=10,
        ),
        bound=st.integers(min_value=0, max_value=11),
    )
    def test_matches_replaying_the_writes(self, writes, bound):
        expected = None  # absent
        for vtype, value in writes[:bound]:
            if vtype is VALUE:
                expected = value
            elif vtype is DELETE:
                expected = None
            else:  # an append to an absent key starts from empty
                expected = (expected or b"") + value
        resolved = resolve_versions(chain_of(writes), max_sequence=bound)
        visible = None if resolved is None or resolved[0] is DELETE else resolved[1]
        assert visible == expected

    def test_reads_no_further_than_the_end_of_the_chain(self):
        # DB.get feeds a lazy stream that opens tables as it goes, so the
        # resolver must stop at the VALUE or DELETE that ends the chain.
        for terminator in (VALUE, DELETE):
            versions = iter(
                chain_of([(VALUE, b"older"), (terminator, b"t"), (MERGE, b"+")])
            )
            resolve_versions(versions)
            assert next(versions)[1] == b"older"


class TestMergingIterator:
    def test_empty(self):
        assert list(MergingIterator([])) == []
        assert list(MergingIterator([iter([]), iter([])])) == []

    def test_single_stream_passthrough(self):
        stream = [(ik(b"a", 1), b"1"), (ik(b"b", 2), b"2")]
        assert list(MergingIterator([iter(stream)])) == stream

    def test_interleaves_by_user_key(self):
        s1 = [(ik(b"a", 1), b"")]
        s2 = [(ik(b"b", 2), b"")]
        s3 = [(ik(b"aa", 3), b"")]
        merged = [k[:-8] for k, _ in MergingIterator([iter(s1), iter(s2), iter(s3)])]
        assert merged == [b"a", b"aa", b"b"]

    def test_newer_version_first_within_key(self):
        s1 = [(ik(b"k", 5), b"older")]
        s2 = [(ik(b"k", 9), b"newer")]
        values = [v for _, v in MergingIterator([iter(s1), iter(s2)])]
        assert values == [b"newer", b"older"]

    def test_large_merge_is_sorted(self):
        streams = []
        expected = []
        for start in range(5):
            entries = [
                (ik(f"key{start}{i:03d}".encode(), 1), b"")
                for i in range(100)
            ]
            streams.append(iter(entries))
            expected.extend(entries)
        result = list(MergingIterator(streams))
        assert sorted(k for k, _ in expected) == [k for k, _ in result]


class TestResolveUserEntries:
    def run(self, entries, **kwargs):
        return list(resolve_user_entries(iter(entries), **kwargs))

    def test_simple_values(self):
        out = self.run([(ik(b"a", 1), b"1"), (ik(b"b", 2), b"2")])
        assert out == [(b"a", b"1"), (b"b", b"2")]

    def test_newest_value_shadows(self):
        out = self.run([(ik(b"k", 9), b"new"), (ik(b"k", 1), b"old")])
        assert out == [(b"k", b"new")]

    def test_tombstone_hides_key(self):
        out = self.run(
            [(ik(b"k", 9, ValueType.DELETE), b""), (ik(b"k", 1), b"old")]
        )
        assert out == []

    def test_merge_chain_applied(self):
        out = self.run(
            [
                (ik(b"k", 9, ValueType.MERGE), b"-c"),
                (ik(b"k", 5, ValueType.MERGE), b"-b"),
                (ik(b"k", 1), b"a"),
            ]
        )
        assert out == [(b"k", b"a-b-c")]

    def test_merge_without_base(self):
        out = self.run([(ik(b"k", 2, ValueType.MERGE), b"x")])
        assert out == [(b"k", b"x")]

    def test_merge_after_delete(self):
        out = self.run(
            [
                (ik(b"k", 9, ValueType.MERGE), b"fresh"),
                (ik(b"k", 5, ValueType.DELETE), b""),
                (ik(b"k", 1), b"buried"),
            ]
        )
        assert out == [(b"k", b"fresh")]

    def test_stop_after_user_key(self):
        entries = [(ik(b"a", 1), b"1"), (ik(b"b", 2), b"2"), (ik(b"c", 3), b"3")]
        out = self.run(entries, stop_after_user_key=b"b")
        assert out == [(b"a", b"1"), (b"b", b"2")]

    def test_empty(self):
        assert self.run([]) == []

    def test_snapshot_bound(self):
        entries = [
            (ik(b"a", 7), b"a-new"),
            (ik(b"a", 2), b"a-old"),
            (ik(b"b", 6, ValueType.DELETE), b""),
            (ik(b"b", 3), b"b-old"),
            (ik(b"c", 8), b"c-new"),
        ]
        assert self.run(entries, max_sequence=5) == [
            (b"a", b"a-old"),
            (b"b", b"b-old"),
        ]


@pytest.mark.parametrize(
    "collapse",
    [resolve_user_entries, lambda merged: collapse_internal_entries(merged, False)],
    ids=["resolve_user_entries", "collapse_internal_entries"],
)
def test_key_is_yielded_after_reading_the_next_keys_first_entry(collapse):
    # Scans and compactions have always read a key's whole group and the
    # next key's first entry before yielding it.  Under the simulator each
    # read can be block I/O, so this order fixes compaction schedules.
    entries = [(ik(b"a", 2), b"2"), (ik(b"a", 1), b"1"), (ik(b"b", 3), b"3")]
    read = []

    def merged():
        for ikey, value in entries:
            read.append((ikey[:-8], value))
            yield ikey, value

    first = next(iter(collapse(merged())))
    assert first[0] == b"a"
    assert read == [(b"a", b"2"), (b"a", b"1"), (b"b", b"3")]


class TestCollapseInternalEntries:
    def run(self, entries, drop):
        return list(collapse_internal_entries(iter(entries), drop_tombstones=drop))

    def test_value_kept(self):
        out = self.run([(ik(b"k", 5), b"v")], drop=False)
        assert out == [(b"k", 5, b"v", ValueType.VALUE)]

    def test_tombstone_kept_above_bottom(self):
        out = self.run([(ik(b"k", 5, ValueType.DELETE), b"")], drop=False)
        assert out == [(b"k", 5, b"", ValueType.DELETE)]

    def test_tombstone_dropped_at_bottom(self):
        out = self.run([(ik(b"k", 5, ValueType.DELETE), b"")], drop=True)
        assert out == []

    def test_shadowed_versions_removed(self):
        out = self.run(
            [(ik(b"k", 9), b"new"), (ik(b"k", 1), b"old")], drop=True
        )
        assert out == [(b"k", 9, b"new", ValueType.VALUE)]

    def test_merge_chain_folded_onto_base(self):
        out = self.run(
            [
                (ik(b"k", 9, ValueType.MERGE), b"-b"),
                (ik(b"k", 5), b"a"),
            ],
            drop=False,
        )
        assert out == [(b"k", 9, b"a-b", ValueType.VALUE)]

    def test_pure_merge_chain_stays_merge_above_bottom(self):
        # Without a base in the inputs, the collapsed chain must remain a
        # MERGE operand so a deeper base keeps its effect.
        out = self.run(
            [
                (ik(b"k", 9, ValueType.MERGE), b"2"),
                (ik(b"k", 5, ValueType.MERGE), b"1"),
            ],
            drop=False,
        )
        assert out == [(b"k", 9, b"12", ValueType.MERGE)]

    def test_pure_merge_chain_becomes_value_at_bottom(self):
        out = self.run(
            [
                (ik(b"k", 9, ValueType.MERGE), b"2"),
                (ik(b"k", 5, ValueType.MERGE), b"1"),
            ],
            drop=True,
        )
        assert out == [(b"k", 9, b"12", ValueType.VALUE)]

    def test_merge_after_delete_collapses_to_value(self):
        out = self.run(
            [
                (ik(b"k", 9, ValueType.MERGE), b"x"),
                (ik(b"k", 5, ValueType.DELETE), b""),
                (ik(b"k", 1), b"buried"),
            ],
            drop=False,
        )
        assert out == [(b"k", 9, b"x", ValueType.VALUE)]

    def test_multiple_keys(self):
        out = self.run(
            [
                (ik(b"a", 3), b"va"),
                (ik(b"b", 2, ValueType.DELETE), b""),
                (ik(b"c", 1), b"vc"),
            ],
            drop=True,
        )
        assert out == [
            (b"a", 3, b"va", ValueType.VALUE),
            (b"c", 1, b"vc", ValueType.VALUE),
        ]
