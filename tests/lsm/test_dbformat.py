"""Tests for internal-key encoding and ordering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.lsm.dbformat import (
    MAX_SEQUENCE,
    ParsedInternalKey,
    ValueType,
    decode_internal_key,
    encode_internal_key,
    internal_key_user_key,
    seek_key,
    sort_key,
)


class TestEncoding:
    def test_roundtrip(self):
        ikey = encode_internal_key(b"user", 42, ValueType.VALUE)
        parsed = decode_internal_key(ikey)
        assert parsed == ParsedInternalKey(b"user", 42, ValueType.VALUE)

    def test_trailer_is_8_bytes(self):
        assert len(encode_internal_key(b"", 0, ValueType.DELETE)) == 8

    def test_user_key_extraction(self):
        ikey = encode_internal_key(b"abc", 7, ValueType.MERGE)
        assert internal_key_user_key(ikey) == b"abc"

    def test_too_short_raises(self):
        with pytest.raises(CorruptionError):
            decode_internal_key(b"1234567")
        with pytest.raises(CorruptionError):
            internal_key_user_key(b"short")

    def test_bad_type_raises(self):
        ikey = encode_internal_key(b"k", 1, ValueType.VALUE)
        corrupted = ikey[:-8] + bytes([99]) + ikey[-7:]
        with pytest.raises(CorruptionError):
            decode_internal_key(corrupted)

    def test_sequence_range_check(self):
        with pytest.raises(ValueError):
            encode_internal_key(b"k", MAX_SEQUENCE + 1, ValueType.VALUE)
        with pytest.raises(ValueError):
            encode_internal_key(b"k", -1, ValueType.VALUE)

    @given(
        st.binary(max_size=32),
        st.integers(min_value=0, max_value=MAX_SEQUENCE),
        st.sampled_from(list(ValueType)),
    )
    def test_roundtrip_property(self, user_key, seq, vtype):
        parsed = decode_internal_key(encode_internal_key(user_key, seq, vtype))
        assert parsed == (user_key, seq, vtype)


class TestOrdering:
    def test_user_keys_ascending(self):
        a = encode_internal_key(b"a", 5, ValueType.VALUE)
        b = encode_internal_key(b"b", 5, ValueType.VALUE)
        assert sort_key(a) < sort_key(b)
        assert sort_key(b) > sort_key(a)

    def test_sequences_descending_within_key(self):
        newer = encode_internal_key(b"k", 10, ValueType.VALUE)
        older = encode_internal_key(b"k", 3, ValueType.VALUE)
        assert sort_key(newer) < sort_key(older)  # newer sorts first

    def test_equal(self):
        a = encode_internal_key(b"k", 5, ValueType.MERGE)
        assert sort_key(a) == sort_key(bytes(a))

    def test_seek_key_sorts_before_all_versions(self):
        sk = seek_key(b"k")
        for seq in (0, 1, 100, MAX_SEQUENCE):
            for vtype in ValueType:
                entry = encode_internal_key(b"k", seq, vtype)
                assert sort_key(sk) <= sort_key(entry)

    def test_seek_key_sorts_after_previous_user_key(self):
        sk = seek_key(b"k")
        prev = encode_internal_key(b"j", 0, ValueType.DELETE)
        assert sort_key(prev) < sort_key(sk)

    def test_sort_key_agrees_with_compare(self):
        keys = [
            encode_internal_key(uk, seq, vt)
            for uk in (b"a", b"ab", b"b")
            for seq in (0, 7, 99)
            for vt in ValueType
        ]

        def by_fields(ikey):
            # The order spelled out field by field: user key ascending,
            # then sequence and type descending.
            parsed = decode_internal_key(ikey)
            return (parsed.user_key, -parsed.sequence, -parsed.value_type)

        assert sorted(keys, key=sort_key) == sorted(keys, key=by_fields)

    @given(
        st.binary(max_size=8),
        st.binary(max_size=8),
        st.integers(min_value=0, max_value=1 << 40),
        st.integers(min_value=0, max_value=1 << 40),
    )
    def test_compare_consistency_property(self, uk1, uk2, s1, s2):
        a = encode_internal_key(uk1, s1, ValueType.VALUE)
        b = encode_internal_key(uk2, s2, ValueType.VALUE)
        assert (sort_key(a) < sort_key(b)) == ((uk1, -s1) < (uk2, -s2))
        assert (sort_key(a) == sort_key(b)) == (a == b)
