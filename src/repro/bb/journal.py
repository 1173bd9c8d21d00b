"""The crash-consistent drain journal.

An append-only log of segment lifecycle records stored *on the burst
buffer device itself* (the journal must not depend on the PFS it is
protecting).  Record framing follows the WAL idiom::

    [fixed32 payload length][fixed32 masked CRC-32C(payload)][payload]

    payload := op:u8  fields...
      SEAL   path  size:fixed64  crc:fixed32   -- segment durable in BB
      COMMIT path  size:fixed64  crc:fixed32   -- PFS copy durable too
      DELETE path                              -- segment dropped
      RENAME src dst                           -- namespace move
      (path/src/dst are varint32-length-prefixed UTF-8)

Replay (:meth:`DrainJournal.replay`) scans records in order and stops at
the first torn or CRC-mismatching frame — a crash mid-append leaves a
partial tail, and discarding it restores exactly the durable prefix.
Because the tier syncs the journal before a segment ``sync()`` returns,
"segment sealed" and "SEAL record durable" are the same event: a torn
SEAL record can only belong to a segment whose fsync never completed,
which the storage contract already allows to vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import InvalidArgumentError
from repro.util.crc import crc32c, crc32c_masked, crc32c_unmask
from repro.util.varint import (
    decode_fixed32,
    decode_fixed64,
    decode_varint32,
    encode_fixed32,
    encode_fixed64,
    encode_varint32,
)

OP_SEAL = 1
OP_COMMIT = 2
OP_DELETE = 3
OP_RENAME = 4

#: device blob the journal lives in ("." prefix keeps it out of every
#: database path the engine can generate)
JOURNAL_BLOB = ".bb/journal"


@dataclass(frozen=True)
class JournalRecord:
    """One decoded journal record."""

    op: int
    path: str
    size: int = 0
    crc: int = 0
    dst: Optional[str] = None  # RENAME only


def _encode_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return encode_varint32(len(raw)) + raw


def _decode_str(buf: bytes, offset: int) -> tuple[str, int]:
    length, offset = decode_varint32(buf, offset)
    return buf[offset : offset + length].decode("utf-8"), offset + length


def encode_record(record: JournalRecord) -> bytes:
    """Frame one record (length + masked CRC + payload)."""
    payload = bytes([record.op]) + _encode_str(record.path)
    if record.op in (OP_SEAL, OP_COMMIT):
        payload += encode_fixed64(record.size) + encode_fixed32(record.crc)
    elif record.op == OP_RENAME:
        if record.dst is None:
            raise InvalidArgumentError("RENAME record needs a dst")
        payload += _encode_str(record.dst)
    elif record.op != OP_DELETE:
        raise InvalidArgumentError(f"unknown journal op {record.op}")
    header = encode_fixed32(len(payload)) + encode_fixed32(
        crc32c_masked(payload)
    )
    return header + payload


def decode_records(raw: bytes) -> tuple[list[JournalRecord], int]:
    """Decode the durable prefix of a journal blob.

    Returns ``(records, consumed)``: parsing stops (without raising) at
    the first torn or corrupt frame — everything after a bad frame is a
    crash artifact by construction.
    """
    records: list[JournalRecord] = []
    offset = 0
    total = len(raw)
    while offset + 8 <= total:
        length = decode_fixed32(raw, offset)
        crc = decode_fixed32(raw, offset + 4)
        start = offset + 8
        end = start + length
        if end > total:
            break  # torn tail: the payload never fully landed
        payload = raw[start:end]
        if crc32c_unmask(crc) != crc32c(payload):
            break  # corrupt frame: treat like a torn tail
        try:
            records.append(_decode_payload(payload))
        except (IndexError, UnicodeDecodeError, InvalidArgumentError):
            break
        offset = end
    return records, offset


def _decode_payload(payload: bytes) -> JournalRecord:
    op = payload[0]
    path, offset = _decode_str(payload, 1)
    if op in (OP_SEAL, OP_COMMIT):
        size = decode_fixed64(payload, offset)
        crc = decode_fixed32(payload, offset + 8)
        return JournalRecord(op=op, path=path, size=size, crc=crc)
    if op == OP_RENAME:
        dst, _ = _decode_str(payload, offset)
        return JournalRecord(op=op, path=path, dst=dst)
    if op == OP_DELETE:
        return JournalRecord(op=op, path=path)
    raise InvalidArgumentError(f"unknown journal op {op}")


class DrainJournal:
    """The journal bound to one device blob."""

    def __init__(self, device, blob: str = JOURNAL_BLOB):
        self.device = device
        self.blob = blob
        self.records_written = 0
        if not device.exists(blob):
            device.create(blob)

    def append(self, record: JournalRecord, sync: bool = True) -> None:
        """Append one record; with ``sync`` it is durable on return."""
        self.device.append(self.blob, encode_record(record))
        if sync:
            self.device.sync(self.blob)
        self.records_written += 1

    def seal(self, path: str, size: int, crc: int) -> None:
        self.append(JournalRecord(op=OP_SEAL, path=path, size=size, crc=crc))

    def commit(self, path: str, size: int, crc: int) -> None:
        self.append(JournalRecord(op=OP_COMMIT, path=path, size=size, crc=crc))

    def delete(self, path: str) -> None:
        self.append(JournalRecord(op=OP_DELETE, path=path))

    def rename(self, src: str, dst: str) -> None:
        self.append(JournalRecord(op=OP_RENAME, path=src, dst=dst))

    def replay(self) -> list[JournalRecord]:
        """Durable record prefix, truncating any torn tail in place.

        Truncation keeps the blob parseable for the next incarnation
        without re-reading past the same garbage.
        """
        raw = self.device.read(self.blob, 0, self.device.size(self.blob))
        records, consumed = decode_records(raw)
        if consumed < len(raw):
            self.device.create(self.blob)
            if consumed:
                self.device.append(self.blob, raw[:consumed])
            self.device.sync(self.blob)
        return records
