"""LevelDB-compatible integer codecs.

SSTables, WAL records and manifest entries use the same on-disk integer
encodings as LevelDB/RocksDB: little-endian fixed-width integers and LEB128
varints.  Keeping the codec bit-compatible makes the format documentation in
:mod:`repro.lsm.sstable` directly comparable with the LevelDB format notes.
"""

from __future__ import annotations

import struct

from repro.errors import CorruptionError

_FIXED32 = struct.Struct("<I")
_FIXED64 = struct.Struct("<Q")

MAX_VARINT32_BYTES = 5
MAX_VARINT64_BYTES = 10


def encode_fixed32(value: int) -> bytes:
    """Encode ``value`` as a 4-byte little-endian unsigned integer."""
    return _FIXED32.pack(value & 0xFFFFFFFF)


def decode_fixed32(buf: bytes, offset: int = 0) -> int:
    """Decode a 4-byte little-endian unsigned integer at ``offset``."""
    return _FIXED32.unpack_from(buf, offset)[0]


def encode_fixed64(value: int) -> bytes:
    """Encode ``value`` as an 8-byte little-endian unsigned integer."""
    return _FIXED64.pack(value & 0xFFFFFFFFFFFFFFFF)


def decode_fixed64(buf: bytes, offset: int = 0) -> int:
    """Decode an 8-byte little-endian unsigned integer at ``offset``."""
    return _FIXED64.unpack_from(buf, offset)[0]


def encode_varint32(value: int) -> bytes:
    """Encode a non-negative integer < 2**32 as a LEB128 varint."""
    if value < 0 or value >= 1 << 32:
        raise ValueError(f"varint32 out of range: {value}")
    return encode_varint64(value)


def encode_varint64(value: int) -> bytes:
    """Encode a non-negative integer < 2**64 as a LEB128 varint."""
    if value < 0 or value >= 1 << 64:
        raise ValueError(f"varint64 out of range: {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint32(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint32; return ``(value, next_offset)``."""
    value, next_offset = decode_varint64(buf, offset, max_bytes=MAX_VARINT32_BYTES)
    if value >= 1 << 32:
        raise CorruptionError("varint32 overflow")
    return value, next_offset


def decode_varint64(
    buf: bytes, offset: int = 0, max_bytes: int = MAX_VARINT64_BYTES
) -> tuple[int, int]:
    """Decode a varint64; return ``(value, next_offset)``.

    Raises :class:`CorruptionError` on truncated or over-long input, which is
    what callers reading untrusted on-disk bytes need.  A one-byte varint
    (the common case for lengths in blocks and records) returns at once.
    """
    try:
        byte = buf[offset]
        if byte < 0x80:
            return byte, offset + 1
        result = byte & 0x7F
        for shift in range(7, 7 * max_bytes, 7):
            offset += 1
            byte = buf[offset]
            result |= (byte & 0x7F) << shift
            if byte < 0x80:
                return result, offset + 1
    except IndexError:
        pass
    raise CorruptionError("truncated or over-long varint")
