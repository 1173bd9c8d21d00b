"""Write-ahead log with LevelDB's exact record framing.

The log is a sequence of 32 KiB blocks.  Each record carries a 7-byte
header — masked CRC (fixed32), payload length (fixed16), record type — and
payloads that straddle block boundaries are split into FIRST/MIDDLE/LAST
fragments.  A payload that fits whole is a FULL record.  Block tails of
fewer than 7 bytes are zero-padded.

The paper's LSMIO *disables* the WAL (§3.1.1) because checkpoints carry an
explicit write barrier; the implementation is still complete here because
(a) the engine is a general library and (b) the ablation benchmark
``bench_ablations.py`` quantifies exactly what disabling it buys.
"""

from __future__ import annotations

import enum
import struct

from repro.errors import CorruptionError
from repro.lsm.env import SequentialFile, WritableFile
from repro.lsm.options import ChecksumType
from repro.util.crc import mask_crc

BLOCK_SIZE = 32 * 1024
HEADER_SIZE = 7

_HEADER = struct.Struct("<IHB")  # masked crc, length, type


class RecordType(enum.IntEnum):
    # 0 is reserved for zero-padded regions.
    FULL = 1
    FIRST = 2
    MIDDLE = 3
    LAST = 4


#: one-byte strings per type byte, so checksumming never concatenates
_TYPE_BYTES = [bytes([t]) for t in range(256)]
_PADDING = b"\x00" * HEADER_SIZE


class LogWriter:
    """Appends framed records to a :class:`WritableFile`.

    Each logical record is assembled — headers, fragments, block padding —
    into one reusable scratch buffer and handed to the destination as a
    single append.  Fragments are ``memoryview`` slices of the caller's
    payload and the checksum runs incrementally over (type byte ‖ view),
    so the only per-byte copy on the write path is scratch → destination.
    """

    def __init__(
        self,
        dest: WritableFile,
        checksum: ChecksumType = ChecksumType.ZLIB_CRC32,
    ):
        self._dest = dest
        self._block_offset = 0
        self._crc2 = checksum.incremental()
        self._checksum_enabled = checksum is not ChecksumType.NONE
        self._scratch = bytearray()

    def add_record(self, payload: bytes) -> None:
        """Append one logical record, fragmenting across blocks as needed."""
        left = memoryview(payload)
        scratch = self._scratch
        del scratch[:]
        begin = True
        while True:
            leftover = BLOCK_SIZE - self._block_offset
            if leftover < HEADER_SIZE:
                if leftover > 0:
                    scratch += _PADDING[:leftover]
                self._block_offset = 0
                leftover = BLOCK_SIZE
            avail = leftover - HEADER_SIZE
            fragment = left[:avail]
            left = left[avail:]
            end = len(left) == 0
            if begin and end:
                rtype = RecordType.FULL
            elif begin:
                rtype = RecordType.FIRST
            elif end:
                rtype = RecordType.LAST
            else:
                rtype = RecordType.MIDDLE
            if self._checksum_enabled:
                # LevelDB checksums the type byte followed by the payload.
                crc = mask_crc(self._crc2(fragment, self._crc2(_TYPE_BYTES[rtype])))
            else:
                crc = 0
            scratch += _HEADER.pack(crc, len(fragment), rtype)
            scratch += fragment
            self._block_offset += HEADER_SIZE + len(fragment)
            begin = False
            if end:
                break
        # Ownership handoff: the destination keeps the framed record and
        # the writer re-arms with a fresh scratch — no final copy.
        self._scratch = bytearray()
        self._dest.append_owned(scratch)

    def flush(self) -> None:
        self._dest.flush()

    def sync(self) -> None:
        self._dest.sync()

    def close(self) -> None:
        self._dest.close()


class LogReader:
    """Reads back records, tolerating a truncated tail (crash recovery).

    A clean corruption mid-log (bad CRC, impossible fragment sequence)
    raises :class:`CorruptionError` unless ``allow_partial`` is set, in
    which case reading stops at the damage — the LevelDB recovery policy
    for the newest log segment.
    """

    def __init__(
        self,
        src: SequentialFile,
        checksum: ChecksumType = ChecksumType.ZLIB_CRC32,
        allow_partial: bool = True,
    ):
        self._src = src
        self._crc2 = checksum.incremental()
        self._verify = checksum is not ChecksumType.NONE
        self._allow_partial = allow_partial
        self._block = b""
        self._block_pos = 0
        self._eof = False

    def _next_fragment(self):
        """Return (type, payload) or None at end of readable data."""
        while True:
            if self._block_pos + HEADER_SIZE > len(self._block):
                if self._eof:
                    return None
                self._block = self._src.read(BLOCK_SIZE)
                self._block_pos = 0
                if len(self._block) < BLOCK_SIZE:
                    self._eof = True
                if len(self._block) < HEADER_SIZE:
                    return None
            crc, length, rtype = _HEADER.unpack_from(self._block, self._block_pos)
            if rtype == 0 and length == 0:
                # Zero padding: skip to next block.
                self._block_pos = len(self._block)
                continue
            start = self._block_pos + HEADER_SIZE
            if start + length > len(self._block):
                if self._allow_partial:
                    return None
                raise CorruptionError("truncated WAL fragment")
            payload = self._block[start : start + length]
            self._block_pos = start + length
            if self._verify:
                expected = mask_crc(
                    self._crc2(payload, self._crc2(_TYPE_BYTES[rtype]))
                )
                if expected != crc:
                    if self._allow_partial:
                        return None
                    raise CorruptionError("WAL fragment checksum mismatch")
            try:
                return RecordType(rtype), payload
            except ValueError as exc:
                if self._allow_partial:
                    return None
                raise CorruptionError(f"bad WAL record type {rtype}") from exc

    def __iter__(self):
        """Yield complete logical records."""
        pending: list[bytes] = []
        in_fragmented = False
        while True:
            item = self._next_fragment()
            if item is None:
                # A dangling FIRST/MIDDLE chain means the writer crashed
                # mid-record; the partial record is discarded.
                return
            rtype, payload = item
            if rtype is RecordType.FULL:
                if in_fragmented and not self._allow_partial:
                    raise CorruptionError("FULL record inside fragment chain")
                pending.clear()
                in_fragmented = False
                yield bytes(payload)
            elif rtype is RecordType.FIRST:
                if in_fragmented and not self._allow_partial:
                    raise CorruptionError("FIRST record inside fragment chain")
                pending = [payload]
                in_fragmented = True
            elif rtype is RecordType.MIDDLE:
                if not in_fragmented:
                    if self._allow_partial:
                        continue
                    raise CorruptionError("MIDDLE record outside fragment chain")
                pending.append(payload)
            else:  # LAST
                if not in_fragmented:
                    if self._allow_partial:
                        continue
                    raise CorruptionError("LAST record outside fragment chain")
                pending.append(payload)
                in_fragmented = False
                yield b"".join(pending)
                pending = []

    def close(self) -> None:
        self._src.close()
