"""Internal key format shared by the memtable, WAL, SSTables and iterators.

An *internal key* is the user key followed by an 8-byte trailer packing
``(sequence << 8) | value_type`` (LevelDB's layout).  Ordering is user key
ascending, then sequence **descending**, so the newest version of a key is
encountered first during forward iteration; :func:`sort_key` is the one
place that order is defined.

Value types:

- ``VALUE``  — a full value from ``put()``;
- ``DELETE`` — a tombstone from ``delete()``;
- ``MERGE``  — an append operand from ``append()`` (LSMIO's ``append()``
  maps onto RocksDB's merge-operator machinery; our merge semantics is
  byte-string concatenation, which is what a checkpoint stream needs).
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.errors import CorruptionError
from repro.util.varint import decode_fixed64, encode_fixed64

MAX_SEQUENCE = (1 << 56) - 1


class ValueType(enum.IntEnum):
    """Discriminator stored in the low byte of the internal-key trailer."""

    DELETE = 0
    VALUE = 1
    MERGE = 2


# Seeking to (user_key, MAX_SEQUENCE, VALUE_FOR_SEEK) finds the newest entry
# for user_key, because sequences sort descending and VALUE_FOR_SEEK is the
# greatest type value.
VALUE_TYPE_FOR_SEEK = ValueType.MERGE


class ParsedInternalKey(NamedTuple):
    """A decoded internal key."""

    user_key: bytes
    sequence: int
    value_type: ValueType


def pack_trailer(sequence: int, value_type: ValueType) -> int:
    """Combine sequence and type into the 8-byte trailer integer."""
    if not 0 <= sequence <= MAX_SEQUENCE:
        raise ValueError(f"sequence out of range: {sequence}")
    return (sequence << 8) | int(value_type)


def encode_internal_key(
    user_key: bytes, sequence: int, value_type: ValueType
) -> bytes:
    """Serialize an internal key: user key + little-endian fixed64 trailer."""
    return user_key + encode_fixed64(pack_trailer(sequence, value_type))


def decode_internal_key(ikey: bytes) -> ParsedInternalKey:
    """Parse an internal key, validating the trailer."""
    if len(ikey) < 8:
        raise CorruptionError(f"internal key too short: {len(ikey)} bytes")
    trailer = decode_fixed64(ikey, len(ikey) - 8)
    value_type = trailer & 0xFF
    try:
        vt = ValueType(value_type)
    except ValueError as exc:
        raise CorruptionError(f"bad value type {value_type}") from exc
    return ParsedInternalKey(bytes(ikey[:-8]), trailer >> 8, vt)


def internal_key_user_key(ikey: bytes) -> bytes:
    """Extract the user-key prefix without fully decoding."""
    if len(ikey) < 8:
        raise CorruptionError(f"internal key too short: {len(ikey)} bytes")
    return bytes(ikey[:-8])


def sort_key(ikey: bytes) -> tuple[bytes, int]:
    """The one definition of internal-key order, as a tuple sort key.

    User key ascending, then trailer descending: the trailer packs
    ``(sequence << 8) | type``, so inverting it puts newer versions (and,
    at one sequence, greater types) first under plain tuple ordering.
    """
    if len(ikey) < 8:
        raise CorruptionError(f"internal key too short: {len(ikey)} bytes")
    return (bytes(ikey[:-8]), -int.from_bytes(ikey[-8:], "little"))


def seek_key(user_key: bytes, sequence: int = MAX_SEQUENCE) -> bytes:
    """Internal key positioned at-or-before all entries ≤ ``sequence``."""
    return encode_internal_key(user_key, sequence, VALUE_TYPE_FOR_SEEK)


def seek_order(user_key: bytes, sequence: int = MAX_SEQUENCE) -> tuple[bytes, int]:
    """``sort_key(seek_key(user_key, sequence))``, without building the key.

    The bound a point lookup bisects memtables, index and blocks by.
    """
    return (user_key, -((sequence << 8) | VALUE_TYPE_FOR_SEEK))
