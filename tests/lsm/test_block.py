"""Tests for prefix-compressed block building and binary-search seeks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.lsm.block import Block, BlockBuilder
from repro.util.varint import encode_fixed32


def build(entries, restart_interval=16):
    builder = BlockBuilder(restart_interval)
    for key, value in entries:
        builder.add(key, value)
    return Block(builder.finish())


class TestBlockBuilder:
    def test_empty_block_roundtrip(self):
        block = Block(BlockBuilder().finish())
        assert list(block) == []
        assert block.first_key() is None

    def test_single_entry(self):
        block = build([(b"key", b"value")])
        assert list(block) == [(b"key", b"value")]

    def test_rejects_out_of_order(self):
        builder = BlockBuilder()
        builder.add(b"b", b"")
        with pytest.raises(ValueError):
            builder.add(b"a", b"")

    def test_rejects_duplicates(self):
        builder = BlockBuilder()
        builder.add(b"a", b"")
        with pytest.raises(ValueError):
            builder.add(b"a", b"")

    def test_rejects_bad_restart_interval(self):
        with pytest.raises(ValueError):
            BlockBuilder(0)

    def test_prefix_compression_shrinks_output(self):
        shared = [(f"common-prefix-{i:04d}".encode(), b"v") for i in range(64)]
        unshared = [(f"{i:04d}-suffix-xxxx".encode(), b"v") for i in range(64)]
        built_shared = BlockBuilder(16)
        built_unshared = BlockBuilder(16)
        for k, v in shared:
            built_shared.add(k, v)
        for k, v in unshared:
            built_unshared.add(k, v)
        assert len(built_shared.finish()) < len(built_unshared.finish())

    def test_restart_interval_one_disables_sharing(self):
        entries = [(f"prefix{i:02d}".encode(), b"") for i in range(10)]
        block = build(entries, restart_interval=1)
        assert block.num_restarts == 10
        assert list(block) == entries

    def test_size_estimate_tracks_growth(self):
        builder = BlockBuilder()
        initial = builder.current_size_estimate()
        builder.add(b"key", b"x" * 100)
        assert builder.current_size_estimate() > initial + 100

    def test_reset_clears(self):
        builder = BlockBuilder()
        builder.add(b"a", b"1")
        builder.reset()
        assert builder.empty
        block = Block(builder.finish())
        assert list(block) == []


class TestBlockSeek:
    def test_seek_exact(self):
        entries = [(f"k{i:03d}".encode(), str(i).encode()) for i in range(100)]
        block = build(entries)
        assert list(block.seek(b"k050")) == entries[50:]

    def test_seek_between_keys(self):
        block = build([(b"a", b"1"), (b"c", b"3")])
        assert list(block.seek(b"b")) == [(b"c", b"3")]

    def test_seek_before_all(self):
        block = build([(b"m", b"")])
        assert list(block.seek(b"a")) == [(b"m", b"")]

    def test_seek_past_end(self):
        block = build([(b"m", b"")])
        assert list(block.seek(b"z")) == []

    def test_seek_empty_block(self):
        block = Block(BlockBuilder().finish())
        assert list(block.seek(b"a")) == []

    @settings(max_examples=30)
    @given(
        st.sets(st.binary(min_size=1, max_size=12), min_size=1, max_size=60),
        st.binary(min_size=1, max_size=12),
        st.integers(min_value=1, max_value=8),
    )
    def test_seek_matches_model(self, keys, probe, restart_interval):
        entries = [(k, k[::-1]) for k in sorted(keys)]
        block = build(entries, restart_interval)
        expected = [(k, v) for k, v in entries if k >= probe]
        assert list(block.seek(probe)) == expected

    @settings(max_examples=30)
    @given(
        st.dictionaries(
            st.binary(min_size=1, max_size=20), st.binary(max_size=64), max_size=80
        ),
        st.integers(min_value=1, max_value=32),
    )
    def test_roundtrip_property(self, mapping, restart_interval):
        entries = sorted(mapping.items())
        block = build(entries, restart_interval)
        assert list(block) == entries


class TestBlockComparator:
    def test_internal_key_ordering_respected(self):
        from repro.lsm.dbformat import (
            ValueType,
            encode_internal_key,
            seek_key,
            sort_key,
        )

        builder = BlockBuilder(4, key=sort_key)
        # Same user key, descending sequences — ascending internal order.
        entries = [
            (encode_internal_key(b"k", seq, ValueType.VALUE), str(seq).encode())
            for seq in (9, 5, 2)
        ]
        for k, v in entries:
            builder.add(k, v)
        block = Block(builder.finish(), key=sort_key)
        found = list(block.seek(seek_key(b"k")))
        assert [v for _, v in found] == [b"9", b"5", b"2"]


class TestCorruptRestartArray:
    """A restart array that would make a seek miss present keys must raise.

    Without a checksum to catch the damage (``verify_checksums=False`` or
    ``ChecksumType.NONE``) a silent miss reads as ``NotFoundError``.
    """

    @staticmethod
    def entries_and_restarts(entries, restart_interval=16):
        """Split a built block into (entry bytes, restart offsets)."""
        data = bytes(build(entries, restart_interval)._data)  # noqa: SLF001
        num = int.from_bytes(data[-4:], "little")
        limit = len(data) - 4 - 4 * num
        restarts = [
            int.from_bytes(data[limit + 4 * i : limit + 4 * i + 4], "little")
            for i in range(num)
        ]
        return data[:limit], restarts

    @staticmethod
    def assemble(body, restarts):
        out = body + b"".join(encode_fixed32(r) for r in restarts)
        return out + encode_fixed32(len(restarts))

    @pytest.mark.parametrize("past", [0, 1, 1000])
    def test_restart_at_or_past_entry_region_raises(self, past):
        body, restarts = self.entries_and_restarts([(b"key", b"value")])
        assert restarts == [0]
        with pytest.raises(CorruptionError, match="restart point"):
            Block(self.assemble(body, [len(body) + past]))

    def test_zero_restarts_with_entries_raises(self):
        body, _ = self.entries_and_restarts([(b"a", b"1"), (b"b", b"2")])
        with pytest.raises(CorruptionError, match="restart point"):
            Block(self.assemble(body, []))

    def test_first_restart_past_first_entry_raises(self):
        entries = [(b"a", b"1"), (b"b", b"2")]
        body, restarts = self.entries_and_restarts(entries, restart_interval=1)
        assert restarts[0] == 0 and len(restarts) == 2
        # Restart 0 moved onto entry 1: a seek for b"a" would skip it.
        with pytest.raises(CorruptionError, match="restart point"):
            Block(self.assemble(body, [restarts[1], restarts[1]]))

    def test_empty_blocks_stay_valid(self):
        assert list(Block(self.assemble(b"", []))) == []
        assert list(Block(self.assemble(b"", [0])).seek(b"a")) == []
