"""Sorted String Table (SSTable) writer and reader — the on-disk C1..Ck trees.

File layout (LevelDB's, with a JSON properties block added)::

    [data block 0]
    [data block 1]
    ...
    [bloom filter block]
    [properties block]
    [metaindex block]   "filter.bloom" / "properties" → BlockHandle
    [index block]       last internal key per data block → BlockHandle
    [footer]            metaindex + index handles, padding, 8-byte magic

Every block is followed by a 5-byte trailer: one compression-type byte and
a fixed32 masked checksum over (payload ‖ type byte).  A ``BlockHandle``
is (varint64 offset, varint64 payload size, trailer excluded).

The builder only ever **appends** — an SSTable flush is one long sequential
write, which is precisely the disk-access pattern the paper exploits for
checkpoint bandwidth (§2.2).
"""

from __future__ import annotations

import json
import zlib
from bisect import bisect_left
from itertools import islice
from typing import Iterator, NamedTuple, Optional

from repro.errors import CorruptionError
from repro.lsm.block import Block, BlockBuilder
from repro.lsm.bloom import BloomFilter
from repro.lsm.cache import LRUCache
from repro.lsm.dbformat import internal_key_user_key, sort_key
from repro.lsm.env import RandomAccessFile, WritableFile
from repro.lsm.options import (
    BLOOM_BITS_PER_KEY,
    ChecksumType,
    CompressionType,
    Options,
    ReadOptions,
)
from repro.util.crc import mask_crc
from repro.util.varint import (
    decode_varint64,
    encode_varint64,
)

MAGIC = b"LSMIOSST"
FOOTER_SIZE = 2 * 10 + 8  # two max-size varint64 handles (padded) + magic
BLOCK_TRAILER_SIZE = 5

FILTER_KEY = b"filter.bloom"
PROPERTIES_KEY = b"properties"


_NONE_TYPE = int(CompressionType.NONE)
_ZLIB_TYPE = int(CompressionType.ZLIB)
_NONE_TYPE_BYTE = bytes([_NONE_TYPE])


class BlockHandle(NamedTuple):
    """Location of a block's payload within the table file."""

    offset: int
    size: int

    def encode(self) -> bytes:
        return encode_varint64(self.offset) + encode_varint64(self.size)

    @classmethod
    def decode(cls, buf: bytes, pos: int = 0) -> tuple["BlockHandle", int]:
        offset, pos = decode_varint64(buf, pos)
        size, pos = decode_varint64(buf, pos)
        return tuple.__new__(cls, (offset, size)), pos


class TableBuilder:
    """Streams sorted (internal key, value) pairs into an SSTable file."""

    def __init__(self, options: Options, dest: WritableFile):
        self._options = options
        self._dest = dest
        self._data_block = BlockBuilder(
            options.block_restart_interval, key=sort_key
        )
        self._index_block = BlockBuilder(1, key=sort_key)
        self._pending_index: Optional[tuple[bytes, BlockHandle]] = None
        self._offset = 0
        self._num_entries = 0
        self._raw_bytes = 0
        self._user_keys: list[bytes] = []
        self._first_key: Optional[bytes] = None
        self._last_key: Optional[bytes] = None
        self._crc2 = options.checksum.incremental()
        self._checksum_enabled = options.checksum is not ChecksumType.NONE
        self._finished = False

    def add(self, ikey: bytes, value: bytes) -> None:
        """Add one entry; internal keys must arrive in sorted order."""
        if self._finished:
            raise ValueError("TableBuilder already finished")
        if self._pending_index is not None:
            self._index_block.add(
                self._pending_index[0], self._pending_index[1].encode()
            )
            self._pending_index = None
        if self._first_key is None:
            self._first_key = ikey
        self._last_key = ikey
        user_key = internal_key_user_key(ikey)
        if not self._user_keys or self._user_keys[-1] != user_key:
            self._user_keys.append(user_key)
        self._data_block.add(ikey, value)
        self._num_entries += 1
        self._raw_bytes += len(ikey) + len(value)
        if self._data_block.current_size_estimate() >= self._options.block_size:
            self._flush_data_block()

    def _flush_data_block(self) -> None:
        if self._data_block.empty:
            return
        last_key = self._data_block.last_key
        if self._options.compression is CompressionType.ZLIB:
            handle = self._write_block(self._data_block.finish())
            self._data_block.reset()
        else:
            # Uncompressed fast path: stream the block's segments to the
            # destination (trailer appended in place) — no copies, large
            # values pass through by reference.
            handle = self._write_owned_parts(self._data_block.detach_parts())
        # Defer the index entry so a future "shortest separator" policy
        # could consult the next block's first key (LevelDB does this).
        self._pending_index = (last_key, handle)

    def _write_block(self, payload: bytes) -> BlockHandle:
        ctype = CompressionType.NONE
        if self._options.compression is CompressionType.ZLIB:
            if self._options.cpu_charge is not None:
                self._options.cpu_charge(len(payload), "compress")
            compressed = zlib.compress(payload)
            # Same heuristic as LevelDB: keep compression only if it pays.
            if len(compressed) < len(payload) * 7 // 8:
                payload = compressed
                ctype = CompressionType.ZLIB
        return self._write_raw_block(payload, ctype)

    def _write_raw_block(self, payload: bytes, ctype: CompressionType) -> BlockHandle:
        """Append payload + 5-byte trailer; ``payload`` may be any buffer.

        The checksum runs incrementally over (payload ‖ type byte) and the
        trailer is appended separately, so a builder's ``memoryview``
        payload reaches the destination without an intermediate copy.
        """
        handle = BlockHandle(self._offset, len(payload))
        type_byte = bytes([int(ctype)])
        if self._checksum_enabled:
            crc = mask_crc(self._crc2(type_byte, self._crc2(payload)))
        else:
            crc = 0
        self._dest.append(payload)
        self._dest.append(type_byte + crc.to_bytes(4, "little"))
        self._offset += len(payload) + BLOCK_TRAILER_SIZE
        return handle

    def _write_owned_parts(self, parts: list) -> BlockHandle:
        """Like :meth:`_write_raw_block` for an uncompressed segment list.

        Emits the identical byte stream ([payload ‖ trailer]) while
        transferring or sharing every segment instead of copying: bytes
        segments go by reference, bytearray segments by ownership, and
        the trailer lands in place on the final (always owned) segment.
        """
        size = sum(len(part) for part in parts)
        handle = BlockHandle(self._offset, size)
        if self._checksum_enabled:
            crc = 0
            crc2 = self._crc2
            for part in parts:
                crc = crc2(part, crc)
            crc = mask_crc(crc2(_NONE_TYPE_BYTE, crc))
        else:
            crc = 0
        dest = self._dest
        last = parts[-1]
        last += _NONE_TYPE_BYTE
        last += crc.to_bytes(4, "little")
        for part in parts[:-1]:
            if type(part) is bytearray:
                dest.append_owned(part)
            else:
                dest.append(part)
        dest.append_owned(last)
        self._offset += size + BLOCK_TRAILER_SIZE
        return handle

    def finish(self) -> int:
        """Write filter/properties/metaindex/index/footer; return file size."""
        if self._finished:
            raise ValueError("TableBuilder already finished")
        self._flush_data_block()
        if self._pending_index is not None:
            self._index_block.add(
                self._pending_index[0], self._pending_index[1].encode()
            )
            self._pending_index = None
        self._finished = True

        # Meta blocks are stored uncompressed: they are read once at open.
        bloom = BloomFilter.build(self._user_keys, BLOOM_BITS_PER_KEY)
        filter_handle = self._write_raw_block(bloom.encode(), CompressionType.NONE)
        properties = {
            "num_entries": self._num_entries,
            "num_user_keys": len(self._user_keys),
            "raw_bytes": self._raw_bytes,
            "block_size": self._options.block_size,
            "compression": self._options.compression.name,
            "checksum": self._options.checksum.value,
        }
        props_handle = self._write_raw_block(
            json.dumps(properties, sort_keys=True).encode(), CompressionType.NONE
        )

        metaindex = BlockBuilder(1)
        metaindex.add(FILTER_KEY, filter_handle.encode())
        metaindex.add(PROPERTIES_KEY, props_handle.encode())
        metaindex_handle = self._write_raw_block(
            metaindex.finish(), CompressionType.NONE
        )
        index_handle = self._write_raw_block(
            self._index_block.finish(), CompressionType.NONE
        )

        footer = metaindex_handle.encode() + index_handle.encode()
        footer += b"\x00" * (FOOTER_SIZE - 8 - len(footer))
        footer += MAGIC
        self._dest.append(footer)
        self._offset += len(footer)
        return self._offset

    @property
    def num_entries(self) -> int:
        return self._num_entries

    @property
    def file_size(self) -> int:
        return self._offset

    @property
    def first_key(self) -> Optional[bytes]:
        return self._first_key

    @property
    def last_key(self) -> Optional[bytes]:
        return self._last_key


class Table:
    """Random-access reader over one SSTable file."""

    def __init__(
        self,
        options: Options,
        file: RandomAccessFile,
        file_number: int = 0,
        block_cache: Optional[LRUCache] = None,
    ):
        self._options = options
        self._file = file
        self._file_number = file_number
        self._cache = block_cache if options.enable_block_cache else None
        self._crc2 = options.checksum.incremental()
        self._checksum_enabled = options.checksum is not ChecksumType.NONE

        size = file.size()
        if size < FOOTER_SIZE:
            raise CorruptionError("file too small to be an SSTable")
        footer = file.read(size - FOOTER_SIZE, FOOTER_SIZE)
        if footer[-8:] != MAGIC:
            raise CorruptionError("bad SSTable magic")
        metaindex_handle, pos = BlockHandle.decode(footer, 0)
        index_handle, _ = BlockHandle.decode(footer, pos)
        # The index never changes after open: decode it once, in one pass,
        # into parallel lists a lookup can bisect by sort key.
        index = Block(self._read_block_payload(index_handle)).entries()
        self._index_keys: list[tuple[bytes, int]] = [
            sort_key(ikey) for ikey, _ in index
        ]
        decode_handle = BlockHandle.decode
        self._index_handles: list[BlockHandle] = [
            decode_handle(handle_bytes)[0] for _, handle_bytes in index
        ]
        self._bloom: Optional[BloomFilter] = None
        self._properties: dict = {}
        for key, value in Block(self._read_block_payload(metaindex_handle)):
            handle, _ = BlockHandle.decode(value, 0)
            if key == FILTER_KEY:
                self._bloom = BloomFilter.decode(self._read_block_payload(handle))
            elif key == PROPERTIES_KEY:
                try:
                    properties = json.loads(bytes(self._read_block_payload(handle)))
                except ValueError as exc:  # bad JSON or bad UTF-8
                    raise CorruptionError("bad properties block") from exc
                if not isinstance(properties, dict):
                    raise CorruptionError("bad properties block")
                self._properties = properties

    def _read_block_payload(self, handle: BlockHandle, verify: bool = True):
        """The block's payload: a read-only view of the read, or inflated.

        The checksum covers (payload ‖ type byte), the read's first
        ``size + 1`` bytes, so one call checks it.
        """
        offset, size = handle
        raw = self._file.read(offset, size + BLOCK_TRAILER_SIZE)
        if len(raw) != size + BLOCK_TRAILER_SIZE:
            raise CorruptionError("truncated block read")
        view = memoryview(raw)
        if verify and self._checksum_enabled:
            actual = mask_crc(self._crc2(view[: size + 1]))
            if int.from_bytes(view[size + 1 :], "little") != actual:
                raise CorruptionError(f"block checksum mismatch at offset {offset}")
        type_byte = raw[size]
        if type_byte == _NONE_TYPE:
            return view[:size]
        if type_byte != _ZLIB_TYPE:
            raise CorruptionError(f"bad compression byte {type_byte}")
        try:
            return zlib.decompress(view[:size])
        except zlib.error as exc:
            raise CorruptionError("block decompression failed") from exc

    def _data_block(self, handle: BlockHandle, read_options: ReadOptions) -> Block:
        cache = self._cache
        if cache is not None:
            cache_key = (self._file_number, handle.offset)
            cached = cache.get(cache_key)
            if cached is not None:
                return cached
        payload = self._read_block_payload(handle, read_options.verify_checksums)
        block = Block(payload, key=sort_key)
        if cache is not None and read_options.fill_cache:
            cache.insert(cache_key, block, len(payload))
        return block

    def may_contain(self, user_key: bytes) -> bool:
        """Bloom-filter probe: False means the key is definitely absent."""
        if self._bloom is None:
            return True
        return self._bloom.may_contain(user_key)

    def seek(
        self, target_ikey: bytes, read_options: Optional[ReadOptions] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield (internal key, value) with key >= ``target_ikey``."""
        read_options = read_options or ReadOptions()
        handles = self._index_handles
        # Index keys are each block's last key: the first one >= target
        # names the only block that can start the answer.
        first = bisect_left(self._index_keys, sort_key(target_ikey))
        if first == len(handles):
            return
        yield from self._data_block(handles[first], read_options).seek(target_ikey)
        for i in range(first + 1, len(handles)):
            yield from self._data_block(handles[i], read_options)

    def versions(
        self, bound: tuple[bytes, int], read_options: ReadOptions
    ) -> Iterator[tuple[bytes, bytes]]:
        """The point-lookup walk: user key ``bound[0]``'s entries, newest first.

        ``bound`` is a sort key (:func:`~repro.lsm.dbformat.seek_order`);
        entries that order before it are skipped.  The index bisects to
        the one block that can start the answer.  A block is read only
        when the caller asks for an entry past the previous block's, so a
        chain that ends inside a block reads no further.
        """
        first = bisect_left(self._index_keys, bound)
        for handle in islice(self._index_handles, first, None):
            found, more = self._data_block(handle, read_options).versions(bound)
            yield from found
            if not more:
                return

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        read_options = ReadOptions()
        for handle in self._index_handles:
            yield from self._data_block(handle, read_options)

    def index_user_keys(self) -> list[bytes]:
        """User-key separators from the index block (last key per block).

        The index is decoded at open, so this costs no I/O; the
        compaction planner uses these as candidate subcompaction
        boundaries — every candidate falls on a data-block edge, so a
        range-restricted merge never splits a block between partitions.
        """
        return [user_key for user_key, _ in self._index_keys]

    @property
    def properties(self) -> dict:
        """The JSON properties block (entry counts, sizes, codec info)."""
        return dict(self._properties)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "Table":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
