"""Atomic write batches (LevelDB's ``WriteBatch``).

A batch is both the unit of atomicity and the WAL payload: the serialized
form is ``fixed64 sequence ‖ fixed32 count ‖ records``, each record being a
type byte plus length-prefixed key (and value for puts/merges).

Batching is also how the paper's *LevelDB backend* aggregates writes:
LevelDB cannot disable its WAL, so LSMIO buffers updates in a
``WriteBatch`` and applies them at the write barrier (§3.1.2).  The
RocksDB-style backend writes through directly instead.  Both behaviours
live in :mod:`repro.core.store`.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import CorruptionError
from repro.lsm.dbformat import ValueType
from repro.util.varint import (
    decode_fixed32,
    decode_fixed64,
    decode_varint32,
    encode_fixed32,
    encode_fixed64,
    encode_varint32,
)

_HEADER_SIZE = 12


class WriteBatch:
    """An ordered collection of put/merge/delete operations."""

    def __init__(self):
        self._ops: list[tuple[ValueType, bytes, bytes]] = []
        self._byte_size = _HEADER_SIZE
        self._payload_bytes = 0
        # Charge accounting: serialized size of each charge segment (one
        # per accumulated operation or merged batch), so a combined batch
        # is charged exactly as its parts would have been individually.
        self._sub_sizes: list[int] = []
        self._charged_upto = _HEADER_SIZE

    def put(self, key: bytes, value: bytes) -> None:
        """Queue a full-value write."""
        self._append(ValueType.VALUE, key, value)

    def merge(self, key: bytes, operand: bytes) -> None:
        """Queue an append operand (LSMIO's ``append()``)."""
        self._append(ValueType.MERGE, key, operand)

    def delete(self, key: bytes) -> None:
        """Queue a tombstone."""
        self._append(ValueType.DELETE, key, b"")

    def _append(self, vtype: ValueType, key: bytes, value: bytes) -> None:
        key = bytes(key)
        value = bytes(value)
        self._ops.append((vtype, key, value))
        self._byte_size += 1 + 5 + len(key) + (5 + len(value) if vtype != ValueType.DELETE else 0)
        self._payload_bytes += len(key) + len(value)

    def clear(self) -> None:
        self._ops.clear()
        self._byte_size = _HEADER_SIZE
        self._payload_bytes = 0
        self._sub_sizes.clear()
        self._charged_upto = _HEADER_SIZE

    # -- combining batches ----------------------------------------------

    def merge_from(self, other: "WriteBatch") -> None:
        """Append every operation of ``other`` (LevelDB-mode aggregation).

        ``LsmioStore.write_batch`` uses this to fold a batch into the
        open ``start_batch``.  Operation tuples are shared, not copied:
        ``other`` is treated as frozen once handed over.  ``other`` keeps
        its charge structure: its segments are appended to this batch's,
        so the combined batch charges modeled CPU exactly as its parts
        would have individually.
        """
        self.add_charge_boundary()  # seal our own tail as one segment
        self._ops.extend(other._ops)
        self._byte_size += other._byte_size - _HEADER_SIZE
        self._payload_bytes += other._payload_bytes
        self._sub_sizes.extend(other.charge_sizes())
        self._charged_upto = self._byte_size

    def add_charge_boundary(self) -> None:
        """End a charge segment at the current tail.

        Operations appended since the previous boundary form one segment,
        sized as a standalone batch of those operations would be.  Callers
        that accumulate what would otherwise be independent writes (the
        manager's put path) use this to keep modeled CPU charges —
        and therefore simulated timings — identical to unbatched writes.
        """
        if self._byte_size == self._charged_upto:
            return
        self._sub_sizes.append(
            self._byte_size - self._charged_upto + _HEADER_SIZE
        )
        self._charged_upto = self._byte_size

    def charge_sizes(self) -> list[int]:
        """Per-segment serialized sizes for modeled CPU accounting."""
        if self._charged_upto != self._byte_size:
            # Tail operations past the last explicit boundary.
            self.add_charge_boundary()
        return self._sub_sizes if self._sub_sizes else [self._byte_size]

    @property
    def payload_bytes(self) -> int:
        """Total key+value bytes across all operations."""
        return self._payload_bytes

    def __len__(self) -> int:
        """Number of queued operations."""
        return len(self._ops)

    @property
    def approximate_size(self) -> int:
        """Upper bound on the serialized size in bytes."""
        return self._byte_size

    def items(self) -> Iterator[tuple[ValueType, bytes, bytes]]:
        """Yield (type, key, value) in insertion order."""
        return iter(self._ops)

    # -- serialization (WAL payload) ------------------------------------

    def serialize_into(self, out: bytearray, sequence: int) -> bytearray:
        """Append the encoding to ``out`` (reusable scratch) and return it."""
        out += encode_fixed64(sequence)
        out += encode_fixed32(len(self._ops))
        for vtype, key, value in self._ops:
            out.append(int(vtype))
            out += encode_varint32(len(key))
            out += key
            if vtype is not ValueType.DELETE:
                out += encode_varint32(len(value))
                out += value
        return out

    def serialize(self, sequence: int) -> bytes:
        """Encode with the starting ``sequence`` number stamped in."""
        return bytes(self.serialize_into(bytearray(), sequence))

    @classmethod
    def deserialize(cls, data: bytes) -> tuple["WriteBatch", int]:
        """Decode; returns (batch, starting sequence number)."""
        if len(data) < _HEADER_SIZE:
            raise CorruptionError("write batch too small")
        sequence = decode_fixed64(data, 0)
        count = decode_fixed32(data, 8)
        batch = cls()
        pos = _HEADER_SIZE
        for _ in range(count):
            if pos >= len(data):
                raise CorruptionError("write batch truncated")
            try:
                vtype = ValueType(data[pos])
            except ValueError as exc:
                raise CorruptionError(f"bad batch op type {data[pos]}") from exc
            pos += 1
            klen, pos = decode_varint32(data, pos)
            key = data[pos : pos + klen]
            if len(key) != klen:
                raise CorruptionError("write batch key truncated")
            pos += klen
            value = b""
            if vtype is not ValueType.DELETE:
                vlen, pos = decode_varint32(data, pos)
                value = data[pos : pos + vlen]
                if len(value) != vlen:
                    raise CorruptionError("write batch value truncated")
                pos += vlen
            batch._append(vtype, bytes(key), bytes(value))
        if pos != len(data):
            raise CorruptionError("trailing bytes after write batch")
        return batch, sequence
