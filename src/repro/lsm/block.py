"""SSTable block format: prefix-compressed entries with restart points.

LevelDB's data/index blocks store entries as::

    shared_len   varint32   # prefix shared with the previous key
    unshared_len varint32
    value_len    varint32
    key_suffix   unshared_len bytes
    value        value_len bytes

Every ``block_restart_interval`` entries the prefix compression resets and
the entry's offset is recorded in a trailing array of fixed32 *restart
points*, enabling binary search inside the block.  The block trailer
(compression byte + checksum) is handled by the table layer, not here.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional

from repro.errors import CorruptionError
from repro.util.varint import (
    MAX_VARINT32_BYTES,
    decode_varint64,
    encode_fixed32,
    encode_varint32,
)

_FIXED32 = struct.Struct("<I")


def _shared_prefix_len(a: bytes, b: bytes) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def _bytewise(key: bytes) -> bytes:
    return key


#: values at least this large are kept as whole segments instead of being
#: copied into the block buffer (checkpoint values are tens of KiB; the
#: copy is the block builder's dominant cost for them)
LARGE_VALUE_BYTES = 4096


class BlockBuilder:
    """Accumulates sorted entries into one serialized block.

    ``key`` maps a stored key to the value it sorts by (bytewise when
    omitted); data and index blocks hold *internal* keys, which do not sort
    bytewise — the sequence trailer sorts descending — so the table layer
    passes :func:`repro.lsm.dbformat.sort_key`.

    Large ``bytes`` values are held by reference as standalone segments
    (``_parts``) rather than copied into the working buffer; consumers on
    the zero-copy path take :meth:`detach_parts` and stream the segments
    out in order, producing the identical byte layout.
    """

    def __init__(self, restart_interval: int = 16, key=None):
        if restart_interval < 1:
            raise ValueError("restart_interval must be >= 1")
        self._restart_interval = restart_interval
        self._key = key or _bytewise
        self.reset()

    def reset(self) -> None:
        buf = getattr(self, "_buf", None)
        if buf is None:
            self._buf = bytearray()
        else:
            try:
                del buf[:]  # keep the allocation for the next block
            except BufferError:
                # A finish() view is still exported; leave that buffer to
                # its holder and start fresh.
                self._buf = bytearray()
        self._parts: list = []  # sealed segments preceding self._buf
        self._parts_len = 0
        self._restarts = [0]
        self._counter = 0
        self._last_key = b""
        self._last_order = None
        self._num_entries = 0

    def add(self, key: bytes, value: bytes) -> None:
        """Append an entry; keys must arrive in strictly increasing order."""
        order = self._key(key)
        if self._num_entries and order <= self._last_order:
            raise ValueError("block entries must be added in sorted order")
        buf = self._buf
        if self._counter < self._restart_interval:
            shared = _shared_prefix_len(self._last_key, key)
        else:
            shared = 0
            self._restarts.append(self._parts_len + len(buf))
            self._counter = 0
        unshared = len(key) - shared
        buf += encode_varint32(shared)
        buf += encode_varint32(unshared)
        buf += encode_varint32(len(value))
        buf += key[shared:]
        if len(value) >= LARGE_VALUE_BYTES and type(value) is bytes:
            # Keep the value as its own segment — no copy.
            if buf:
                self._parts.append(buf)
                self._parts_len += len(buf)
                self._buf = bytearray()
            self._parts.append(value)
            self._parts_len += len(value)
        else:
            buf += value
        self._last_key = key
        self._last_order = order
        self._counter += 1
        self._num_entries += 1

    def finish(self) -> memoryview:
        """Serialize: entries, restart offsets, restart count.

        Appends the restart array in place and returns a ``memoryview``
        — zero copies when no large-value segments were taken (index and
        meta blocks), one join otherwise (the compression path, which
        needs contiguous input anyway).  The view is only valid until
        :meth:`reset`; consumers that outlive it (block caches, tests)
        must take ``bytes()`` of it, which :class:`Block` does.
        """
        buf = self._buf
        for restart in self._restarts:
            buf += encode_fixed32(restart)
        buf += encode_fixed32(len(self._restarts))
        if not self._parts:
            return memoryview(buf)
        self._parts.append(bytes(buf))
        whole = bytearray(b"".join(self._parts))
        self._parts = [whole]  # idempotent finish/reset handling
        self._parts_len = len(whole)
        del buf[:]
        return memoryview(whole)

    def detach_parts(self) -> list:
        """Serialize and transfer ownership of all segments, in order.

        Returns the block's byte stream as an ordered list of buffers —
        ``bytes`` segments are shared references, the final ``bytearray``
        carries the restart array — and re-arms the builder.  Callers
        stream them to a ``WritableFile`` (``append``/``append_owned``)
        for a copy-free block write with the identical layout.
        """
        buf = self._buf
        for restart in self._restarts:
            buf += encode_fixed32(restart)
        buf += encode_fixed32(len(self._restarts))
        parts = self._parts
        parts.append(buf)
        self._parts = []
        self._buf = bytearray()
        self.reset()
        return parts

    def current_size_estimate(self) -> int:
        return self._parts_len + len(self._buf) + 4 * (len(self._restarts) + 1)

    @property
    def empty(self) -> bool:
        return self._num_entries == 0

    @property
    def last_key(self) -> bytes:
        return self._last_key


class Block:
    """Read-side view of a serialized block with binary-searchable seeks.

    The restart array is parsed and validated once, at construction.
    ``data`` may be ``bytes`` or a read-only ``memoryview`` (a table
    read's payload, kept without a copy); anything else, such as a
    builder's writable view, is copied.
    """

    def __init__(self, data: bytes, key=None):
        if type(data) is not bytes and not (
            type(data) is memoryview and data.readonly
        ):
            data = bytes(data)
        size = len(data)
        if size < 4:
            raise CorruptionError("block too small")
        self._data = data
        self._key = key or _bytewise
        (num_restarts,) = _FIXED32.unpack_from(data, size - 4)
        restarts_off = size - 4 - 4 * num_restarts
        if restarts_off < 0:
            raise CorruptionError("bad restart array")
        restarts = struct.unpack_from(f"<{num_restarts}I", data, restarts_off)
        # A block holding entries needs a restart at its first entry and
        # none past its last; otherwise a seek would silently miss.
        if restarts_off and (
            not restarts or restarts[0] != 0 or max(restarts) >= restarts_off
        ):
            raise CorruptionError("restart point outside the entry region")
        self._restarts = restarts
        self._num_restarts = num_restarts
        self._limit = restarts_off

    def _decode_entry(self, offset: int, prev_key: bytes) -> tuple[bytes, bytes, int]:
        """Return (key, value, next_offset) for the entry at ``offset``.

        The three lengths are almost always one-byte varints (a large
        value's length is the exception), so those are read in place.
        """
        data = self._data
        # offset < limit <= len(data) - 4: all three bytes exist.
        shared = data[offset]
        unshared = data[offset + 1]
        value_len = data[offset + 2]
        if (shared | unshared) < 0x80:
            if value_len < 0x80:
                pos = offset + 3
            else:
                value_len, pos = decode_varint64(
                    data, offset + 2, MAX_VARINT32_BYTES
                )
        else:
            shared, pos = decode_varint64(data, offset, MAX_VARINT32_BYTES)
            unshared, pos = decode_varint64(data, pos, MAX_VARINT32_BYTES)
            value_len, pos = decode_varint64(data, pos, MAX_VARINT32_BYTES)
        if shared and shared > len(prev_key):
            raise CorruptionError("corrupted shared prefix length")
        key_end = pos + unshared
        value_end = key_end + value_len
        if value_end > self._limit:
            raise CorruptionError("block entry overruns restart array")
        key = prev_key[:shared] + data[pos:key_end]
        value = bytes(data[key_end:value_end])
        return key, value, value_end

    def _restart_key(self, index: int) -> bytes:
        key, _, _ = self._decode_entry(self._restarts[index], b"")
        return key

    def _restart_before(self, target) -> int:
        """Offset of the last restart whose key orders before ``target``.

        ``target`` is already mapped by the block's ``key``.
        """
        order = self._key
        restarts = self._restarts
        lo, hi = 0, self._num_restarts - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if order(self._restart_key(mid)) < target:
                lo = mid
            else:
                hi = mid - 1
        return restarts[lo]

    def iterate(self, start: int = 0) -> Iterator[tuple[bytes, bytes]]:
        """Yield (key, value) from restart-region offset ``start``."""
        offset = start
        prev_key = b""
        while offset < self._limit:
            key, value, offset = self._decode_entry(offset, prev_key)
            yield key, value
            prev_key = key

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        return self.iterate(0)

    def entries(self) -> list[tuple[bytes, bytes]]:
        """Every (key, value) in one pass, for a block that is read whole."""
        out = []
        offset = 0
        key = b""
        limit = self._limit
        decode = self._decode_entry
        while offset < limit:
            key, value, offset = decode(offset, key)
            out.append((key, value))
        return out

    def seek(self, target: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Yield entries with key >= ``target``.

        Binary search over restart points, then a linear scan of at most
        one restart interval.  Ordering is by the block's ``key``.
        """
        if self._limit == 0:
            return
        order = self._key
        target = order(target)
        entries = self.iterate(self._restart_before(target))
        for key, value in entries:
            if order(key) >= target:
                yield key, value
                break
        yield from entries  # sorted: everything after the first match

    def versions(
        self, bound: tuple[bytes, int]
    ) -> tuple[list[tuple[bytes, bytes]], bool]:
        """One user key's entries in a block of internal keys.

        ``bound`` is a sort key (:func:`~repro.lsm.dbformat.seek_order`)
        and the block's ``key`` is :func:`~repro.lsm.dbformat.sort_key`.
        Returns the entries of user key ``bound[0]`` that order at or
        after ``bound``, newest first, and whether the scan reached the
        block's end still inside that key, so its chain may go on in the
        next block.  The point-read form of :meth:`seek`.
        """
        found: list[tuple[bytes, bytes]] = []
        limit = self._limit
        if limit == 0:
            return found, True
        user_key, newest = bound
        decode = self._decode_entry
        # A block holding entries starts a restart at offset 0.
        offset = self._restart_before(bound) if self._num_restarts > 1 else 0
        key = b""
        while offset < limit:
            key, value, offset = decode(offset, key)
            if len(key) < 8:
                raise CorruptionError(f"internal key too short: {len(key)} bytes")
            entry_user_key = key[:-8]
            if entry_user_key == user_key:
                # Trailers sort descending: a newer one orders before bound.
                if -int.from_bytes(key[-8:], "little") >= newest:
                    found.append((key, value))
            elif entry_user_key > user_key:
                return found, False
        return found, True

    def first_key(self) -> Optional[bytes]:
        if self._limit == 0:
            return None
        return self._restart_key(0)

    @property
    def num_restarts(self) -> int:
        return self._num_restarts
