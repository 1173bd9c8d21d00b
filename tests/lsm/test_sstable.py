"""Tests for the SSTable writer/reader: format, checksums, bloom, cache."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError, NotFoundError
from repro.lsm import DB, ReadOptions
from repro.lsm.block import Block
from repro.lsm.cache import LRUCache
from repro.lsm.dbformat import (
    MAX_SEQUENCE,
    ValueType,
    encode_internal_key,
    seek_key,
    sort_key,
)
from repro.lsm.env import LocalFsEnv, MemEnv
from repro.lsm.options import ChecksumType, CompressionType, Options
from repro.lsm.sstable import (
    BLOCK_TRAILER_SIZE,
    FOOTER_SIZE,
    BlockHandle,
    Table,
    TableBuilder,
)


def build_table(env, path, items, options=None):
    """items: list of (user_key, seq, vtype, value), pre-sorted."""
    options = options or Options()
    dest = env.new_writable_file(path)
    builder = TableBuilder(options, dest)
    for user_key, seq, vtype, value in items:
        builder.add(encode_internal_key(user_key, seq, vtype), value)
    size = builder.finish()
    dest.close()
    return size, options


def open_table(env, path, options, cache=None):
    return Table(options, env.new_random_access_file(path), block_cache=cache)


def simple_items(n, value_size=10):
    return [
        (f"key{i:05d}".encode(), 1, ValueType.VALUE, bytes(value_size))
        for i in range(n)
    ]


class TestRoundtrip:
    def test_empty_table(self):
        env = MemEnv()
        _, options = build_table(env, "t", [])
        table = open_table(env, "t", options)
        assert list(table) == []
        assert table.properties["num_entries"] == 0

    def test_single_entry(self):
        env = MemEnv()
        _, options = build_table(
            env, "t", [(b"k", 7, ValueType.VALUE, b"value")]
        )
        table = open_table(env, "t", options)
        entries = list(table)
        assert len(entries) == 1
        ikey, value = entries[0]
        assert value == b"value"

    def test_many_entries_in_order(self):
        env = MemEnv()
        items = simple_items(500)
        _, options = build_table(env, "t", items)
        table = open_table(env, "t", options)
        values = [v for _, v in table]
        assert len(values) == 500

    def test_multi_block_table(self):
        env = MemEnv()
        options = Options(block_size=256)
        items = simple_items(200, value_size=64)
        build_table(env, "t", items, options)
        table = open_table(env, "t", options)
        assert table.properties["num_entries"] == 200
        assert len(list(table)) == 200

    def test_values_larger_than_block(self):
        env = MemEnv()
        options = Options(block_size=1024)
        items = [
            (b"big1", 1, ValueType.VALUE, bytes(range(256)) * 64),
            (b"big2", 1, ValueType.VALUE, b"\x42" * 16384),
        ]
        build_table(env, "t", items, options)
        table = open_table(env, "t", options)
        got = {k[:-8]: v for k, v in table}
        assert got[b"big1"] == bytes(range(256)) * 64
        assert got[b"big2"] == b"\x42" * 16384

    def test_properties_block(self):
        env = MemEnv()
        _, options = build_table(env, "t", simple_items(10))
        table = open_table(env, "t", options)
        props = table.properties
        assert props["num_entries"] == 10
        assert props["num_user_keys"] == 10
        assert props["compression"] == "NONE"

    def test_builder_tracks_bounds(self):
        env = MemEnv()
        options = Options()
        dest = env.new_writable_file("t")
        builder = TableBuilder(options, dest)
        k1 = encode_internal_key(b"a", 1, ValueType.VALUE)
        k2 = encode_internal_key(b"z", 2, ValueType.VALUE)
        builder.add(k1, b"")
        builder.add(k2, b"")
        builder.finish()
        assert builder.first_key == k1
        assert builder.last_key == k2
        assert builder.num_entries == 2

    def test_double_finish_rejected(self):
        env = MemEnv()
        builder = TableBuilder(Options(), env.new_writable_file("t"))
        builder.finish()
        with pytest.raises(ValueError):
            builder.finish()
        with pytest.raises(ValueError):
            builder.add(encode_internal_key(b"k", 1, ValueType.VALUE), b"")


class TestSeek:
    def test_seek_finds_exact_user_key(self):
        env = MemEnv()
        items = simple_items(100)
        _, options = build_table(env, "t", items)
        table = open_table(env, "t", options)
        found = list(table.seek(seek_key(b"key00050")))
        assert found[0][1] == bytes(10)
        assert len(found) == 50

    def test_seek_past_end(self):
        env = MemEnv()
        _, options = build_table(env, "t", simple_items(10))
        table = open_table(env, "t", options)
        assert list(table.seek(seek_key(b"zzz"))) == []

    def test_seek_spans_blocks(self):
        env = MemEnv()
        options = Options(block_size=128)
        items = simple_items(100, value_size=32)
        build_table(env, "t", items, options)
        table = open_table(env, "t", options)
        found = list(table.seek(seek_key(b"key00090")))
        assert len(found) == 10

    def test_version_ordering_within_user_key(self):
        env = MemEnv()
        items = [
            (b"k", 9, ValueType.VALUE, b"newest"),
            (b"k", 5, ValueType.MERGE, b"middle"),
            (b"k", 1, ValueType.VALUE, b"oldest"),
        ]
        _, options = build_table(env, "t", items)
        table = open_table(env, "t", options)
        values = [v for _, v in table.seek(seek_key(b"k"))]
        assert values == [b"newest", b"middle", b"oldest"]


class TestBloom:
    def test_absent_key_usually_filtered(self):
        env = MemEnv()
        _, options = build_table(env, "t", simple_items(1000))
        table = open_table(env, "t", options)
        for key, _, _, _ in simple_items(1000):
            assert table.may_contain(key)
        misses = sum(
            table.may_contain(f"absent{i}".encode()) for i in range(500)
        )
        assert misses < 50


class TestChecksumAndCompression:
    def test_corrupted_data_block_detected(self):
        env = MemEnv()
        options = Options(block_size=256)
        build_table(env, "t", simple_items(100, value_size=64), options)
        # Flip a byte early in the file (inside a data block).
        env._files["t"].data[100] ^= 0xFF  # noqa: SLF001
        table = open_table(env, "t", options)
        with pytest.raises(CorruptionError):
            list(table)

    def test_bad_magic_rejected(self):
        env = MemEnv()
        build_table(env, "t", simple_items(5))
        env._files["t"].data[-1] ^= 0xFF  # noqa: SLF001
        with pytest.raises(CorruptionError):
            open_table(env, "t", Options())

    def test_truncated_file_rejected(self):
        env = MemEnv()
        env.new_writable_file("t").close()
        with pytest.raises(CorruptionError):
            open_table(env, "t", Options())

    def test_zlib_compression_roundtrip(self):
        env = MemEnv()
        options = Options(compression=CompressionType.ZLIB, block_size=1024)
        compressible = b"A" * 4096
        items = [(b"k", 1, ValueType.VALUE, compressible)]
        size, _ = build_table(env, "t", items, options)
        assert size < len(compressible)  # compression actually applied
        table = open_table(env, "t", options)
        assert list(table)[0][1] == compressible

    def test_incompressible_data_stored_raw(self):
        env = MemEnv()
        options = Options(compression=CompressionType.ZLIB)
        payload = os.urandom(2048)
        build_table(env, "t", [(b"k", 1, ValueType.VALUE, payload)], options)
        table = open_table(env, "t", options)
        assert list(table)[0][1] == payload

    def test_checksum_none_roundtrip(self):
        env = MemEnv()
        options = Options(checksum=ChecksumType.NONE)
        build_table(env, "t", simple_items(20), options)
        table = open_table(env, "t", options)
        assert len(list(table)) == 20

    def test_crc32c_roundtrip(self):
        env = MemEnv()
        options = Options(checksum=ChecksumType.CRC32C)
        build_table(env, "t", simple_items(20), options)
        table = open_table(env, "t", options)
        assert len(list(table)) == 20


class TestBlockCacheIntegration:
    def test_cache_populated_on_read(self):
        env = MemEnv()
        options = Options(block_size=256)
        build_table(env, "t", simple_items(100, value_size=32), options)
        cache = LRUCache(1 << 20)
        table = open_table(env, "t", options, cache=cache)
        list(table)
        assert len(cache) > 0

    def test_cache_disabled_by_option(self):
        env = MemEnv()
        options = Options(block_size=256, enable_block_cache=False)
        build_table(env, "t", simple_items(100, value_size=32), options)
        cache = LRUCache(1 << 20)
        table = open_table(env, "t", options, cache=cache)
        list(table)
        assert len(cache) == 0


class TestPropertyBased:
    @settings(max_examples=20, deadline=None)
    @given(
        st.dictionaries(
            st.binary(min_size=1, max_size=16),
            st.binary(max_size=128),
            min_size=1,
            max_size=60,
        ),
        st.integers(min_value=64, max_value=2048),
    )
    def test_roundtrip_any_mapping(self, mapping, block_size):
        env = MemEnv()
        options = Options(block_size=block_size)
        items = [
            (key, 1, ValueType.VALUE, value)
            for key, value in sorted(mapping.items())
        ]
        build_table(env, "t", items, options)
        table = open_table(env, "t", options)
        got = {k[:-8]: v for k, v in table}
        assert got == mapping


def data_handles(env, path) -> list[BlockHandle]:
    """Each data block's handle, parsed straight from the file's bytes."""
    with env.new_random_access_file(path) as fh:
        raw = fh.read(0, fh.size())
    _, pos = BlockHandle.decode(raw, len(raw) - FOOTER_SIZE)
    index, _ = BlockHandle.decode(raw, pos)
    index_block = Block(raw[index.offset : index.offset + index.size])
    return [BlockHandle.decode(value)[0] for _, value in index_block]


class TestReadPathCorruption:
    """The block read's corruption checks: type byte under the checksum,
    restart validation without one, and short reads at end of file."""

    @pytest.mark.parametrize(
        "checksum", [ChecksumType.ZLIB_CRC32, ChecksumType.CRC32C]
    )
    def test_flipped_type_byte_fails_the_checksum(self, checksum):
        env = MemEnv()
        options = Options(checksum=checksum)
        build_table(env, "t", [(b"k", 1, ValueType.VALUE, b"v" * 32)], options)
        handle = data_handles(env, "t")[0]
        # NONE -> ZLIB: without the checksum over the type byte this would
        # surface as a decompression failure instead.
        env._files["t"].data[handle.offset + handle.size] ^= 0x01  # noqa: SLF001
        table = open_table(env, "t", options)
        with pytest.raises(CorruptionError, match="checksum mismatch"):
            list(table.seek(seek_key(b"k")))

    def test_corrupt_restart_array_raises_without_checksums(self):
        env = MemEnv()
        options = Options(checksum=ChecksumType.NONE)
        build_table(env, "t", [(b"k", 1, ValueType.VALUE, b"value")], options)
        handle = data_handles(env, "t")[0]
        data = env._files["t"].data  # noqa: SLF001
        restart = handle.offset + handle.size - 8  # the block's only restart
        assert data[restart : restart + 4] == bytes(4)
        data[restart] = handle.size - 8  # points at the restart array itself
        table = open_table(env, "t", options)
        with pytest.raises(CorruptionError, match="restart point"):
            list(table.seek(seek_key(b"k")))

    def test_truncated_local_file_raises_not_short_block(self, tmp_path):
        env = LocalFsEnv()
        path = str(tmp_path / "t.sst")
        options = Options(block_size=256)
        items = simple_items(40, value_size=64)
        build_table(env, path, items, options)
        last = data_handles(env, path)[-1]
        table = Table(options, env.new_random_access_file(path))
        # Cut the last data block's trailer short after open: pread hits
        # end of file mid-block.
        os.truncate(path, last.offset + last.size + BLOCK_TRAILER_SIZE - 3)
        try:
            with pytest.raises(CorruptionError, match="truncated block read"):
                list(table.seek(seek_key(items[0][0])))
        finally:
            table.close()


PREFIX_KEYS = [b"", b"a", b"a\x00", b"ab"]


class TestBisectedIndexOrdering:
    """``Table.seek`` bisects (user key, -trailer); check it against a scan.

    The user keys are prefixes of one another, so any bytewise shortcut
    over whole internal keys orders them wrongly.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        versions=st.lists(
            st.tuples(
                st.sampled_from(PREFIX_KEYS),
                st.integers(min_value=0, max_value=MAX_SEQUENCE),
                st.sampled_from(list(ValueType)),
                st.binary(max_size=24),
            ),
            min_size=1,
            max_size=48,
            unique_by=lambda v: (v[0], v[1]),
        ),
        block_size=st.integers(min_value=16, max_value=160),
        restart_interval=st.integers(min_value=1, max_value=4),
        probes=st.lists(
            st.tuples(
                st.sampled_from(PREFIX_KEYS + [b"\x00", b"a\x00\x00", b"b"]),
                st.integers(min_value=0, max_value=MAX_SEQUENCE),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_seek_matches_linear_scan(
        self, versions, block_size, restart_interval, probes
    ):
        env = MemEnv()
        options = Options(
            block_size=block_size, block_restart_interval=restart_interval
        )
        items = sorted(versions, key=lambda v: (v[0], -v[1]))
        build_table(env, "t", items, options)
        table = open_table(env, "t", options)
        everything = list(table)
        assert [k for k, _ in everything] == [
            encode_internal_key(u, s, t) for u, s, t, _ in items
        ]
        for user_key, sequence in probes:
            target = seek_key(user_key, sequence)
            expected = [
                (k, v) for k, v in everything if sort_key(k) >= sort_key(target)
            ]
            assert list(table.seek(target)) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "append", "delete", "flush", "snapshot"]),
                st.sampled_from(PREFIX_KEYS),
                st.binary(max_size=12),
            ),
            min_size=1,
            max_size=40,
        ),
        block_size=st.integers(min_value=16, max_value=128),
    )
    def test_snapshot_get_matches_model(self, ops, block_size):
        options = Options(
            block_size=block_size,
            block_restart_interval=2,
            enable_compaction=False,
            enable_wal=False,
        )
        db = DB.open("db", options, env=MemEnv())
        model: dict = {}
        pinned = []  # (snapshot, model as of the snapshot)
        try:
            for op, key, value in ops:
                if op == "put":
                    db.put(key, value)
                    model[key] = value
                elif op == "append":
                    db.append(key, value)
                    model[key] = model.get(key, b"") + value
                elif op == "delete":
                    db.delete(key)
                    model.pop(key, None)
                elif op == "flush":
                    db.flush()
                else:
                    pinned.append((db.snapshot(), dict(model)))
            db.flush()  # every version is now read from a table
            pinned.append((None, model))
            for snap, expected in pinned:
                read_options = ReadOptions(snapshot=snap)
                for key in PREFIX_KEYS:
                    try:
                        got = db.get(key, read_options)
                    except NotFoundError:
                        got = None
                    assert got == expected.get(key), (key, snap)
        finally:
            for snap, _ in pinned:
                if snap is not None:
                    snap.release()
            db.close()


class _ReadCountingEnv(MemEnv):
    """MemEnv whose random-access files log each read's size."""

    def __init__(self):
        super().__init__()
        self.reads: list[int] = []

    def new_random_access_file(self, path):
        return _CountingFile(super().new_random_access_file(path), self.reads)


class _CountingFile:
    def __init__(self, base, reads):
        self._base = base
        self._reads = reads

    def read(self, offset, nbytes):
        self._reads.append(nbytes)
        return self._base.read(offset, nbytes)

    def size(self):
        return self._base.size()

    def close(self):
        self._base.close()


class TestPointGetCost:
    """Deterministic per-lookup cost: counts, not wall time."""

    VALUE = 64 << 10
    ENTRIES = 512

    def test_point_get_costs_one_read_and_at_most_two_entry_decodes(
        self, monkeypatch
    ):
        env = _ReadCountingEnv()
        options = Options(
            enable_block_cache=False,
            enable_compaction=False,
            enable_wal=False,
            write_buffer_size=2 * self.ENTRIES * self.VALUE,
        )
        values = [bytes([i]) * self.VALUE for i in range(4)]
        keys = [f"ckpt/var{i:08d}".encode() for i in range(self.ENTRIES)]
        db = DB.open("db", options, env=env)
        for i, key in enumerate(keys):
            db.put(key, values[i % 4])
        db.flush()
        db.close()
        assert sum(name.endswith(".sst") for name in env.get_children("db")) == 1

        decodes = {"entry": 0, "handle": 0}
        decode_entry = Block._decode_entry  # noqa: SLF001
        decode_handle = BlockHandle.decode.__func__

        def count_entry(block, offset, prev_key):
            decodes["entry"] += 1
            return decode_entry(block, offset, prev_key)

        def count_handle(cls, buf, pos=0):
            decodes["handle"] += 1
            return decode_handle(cls, buf, pos)

        monkeypatch.setattr(Block, "_decode_entry", count_entry)
        monkeypatch.setattr(BlockHandle, "decode", classmethod(count_handle))

        db = DB.open("db", options, env=env)
        try:
            assert db.get(keys[0]) == values[0]  # opens the table
            handles_at_open = decodes["handle"]
            assert handles_at_open >= self.ENTRIES  # the whole index, once
            for i in range(1, self.ENTRIES, 7):
                env.reads.clear()
                before = decodes["entry"]
                assert db.get(keys[i]) == values[i % 4]
                assert len(env.reads) == 1  # the data block, nothing else
                assert env.reads[0] > self.VALUE
                assert decodes["entry"] - before <= 2
            # However many gets followed, the index was decoded only at open.
            assert decodes["handle"] == handles_at_open
        finally:
            db.close()
