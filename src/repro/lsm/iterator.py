"""Iterators: k-way merging over sorted runs and user-visible resolution.

Reading an LSM-tree is "a way similar to a merge sort" (§2.2): the
memtable, every L0 file, and one file per deeper level each provide a
sorted stream of internal entries; :class:`MergingIterator` interleaves
them in internal-key order (user key ascending, sequence descending), and
:func:`resolve_versions` — the one version-chain rule, shared by point
reads, scans and compaction — collapses each user key's versions into the
value a reader should see, applying merge (append) operands and
suppressing tombstones.
"""

from __future__ import annotations

import heapq
from itertools import groupby
from typing import Iterable, Iterator, Optional

from repro.errors import CorruptionError
from repro.lsm.dbformat import (
    MAX_SEQUENCE,
    ValueType,
    decode_internal_key,
    internal_key_user_key,
    sort_key,
)

_DELETE = int(ValueType.DELETE)
_VALUE = int(ValueType.VALUE)
_MERGE = int(ValueType.MERGE)


class MergingIterator:
    """Merges N sorted (internal key, value) streams into one.

    Ties on the sort key (two streams carrying the same user key and
    sequence, which the write path never produces) go to the earlier
    stream, so the merge stays deterministic regardless.
    """

    def __init__(self, streams: Iterable[Iterator[tuple[bytes, bytes]]]):
        self._heap: list[tuple[tuple, int, bytes, bytes, Iterator]] = []
        for index, stream in enumerate(streams):
            stream = iter(stream)
            first = next(stream, None)
            if first is not None:
                ikey, value = first
                heapq.heappush(
                    self._heap, (sort_key(ikey), index, ikey, value, stream)
                )

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        heap = self._heap
        while heap:
            _, index, ikey, value, stream = heapq.heappop(heap)
            yield ikey, value
            # Drop the entry handed on before pulling the next one, so a
            # scan holds one value per stream across the read, not two.
            ikey = value = nxt = nvalue = None
            nxt = next(stream, None)
            if nxt is not None:
                nkey, nvalue = nxt
                heapq.heappush(heap, (sort_key(nkey), index, nkey, nvalue, stream))


def resolve_versions(
    versions: Iterable[tuple[bytes, bytes]], max_sequence: int = MAX_SEQUENCE
) -> Optional[tuple[ValueType, bytes]]:
    """Resolve one user key's (internal key, value) versions, newest first.

    Versions newer than ``max_sequence`` (a snapshot's bound) are skipped.
    Reading stops at the first visible ``VALUE`` or ``DELETE``, which ends
    the chain, so a lazy ``versions`` stream is consumed no further than
    the answer needs.  The result is:

    - ``(VALUE, base + operands)`` for a ``VALUE`` under newer ``MERGE``
      (append) operands, applied oldest→newest;
    - ``(DELETE, b"")`` for a ``DELETE`` with no newer operand; with
      operands the key is re-created from empty, ``(VALUE, operands)``;
    - ``(MERGE, operands)`` when only operands are visible: the base, if
      any, is older than every version given;
    - ``None`` when no version is visible.

    Each trailer is read in place (the fixed64 of
    :mod:`repro.lsm.dbformat`), with the checks of
    :func:`~repro.lsm.dbformat.decode_internal_key`: this runs once per
    version on every point read.
    """
    operands: list[bytes] = []  # newest first
    for ikey, value in versions:
        if len(ikey) < 8:
            raise CorruptionError(f"internal key too short: {len(ikey)} bytes")
        trailer = int.from_bytes(ikey[-8:], "little")
        if trailer >> 8 > max_sequence:
            continue
        value_type = trailer & 0xFF
        if value_type == _MERGE:
            operands.append(value)
            continue
        if value_type == _VALUE:
            if not operands:
                return ValueType.VALUE, value
            operands.append(value)
        elif value_type != _DELETE:
            raise CorruptionError(f"bad value type {value_type}")
        elif not operands:
            return ValueType.DELETE, b""
        return ValueType.VALUE, b"".join(reversed(operands))
    if operands:
        return ValueType.MERGE, b"".join(reversed(operands))
    return None


def _by_user_key(
    merged: Iterable[tuple[bytes, bytes]],
) -> Iterator[tuple[bytes, list[tuple[bytes, bytes]]]]:
    """(user key, its versions newest first) for each user key of ``merged``.

    A group is read in full, up to and including the next key's first
    entry, before it is handed on.  That is the order in which merges have
    always read their inputs; it fixes when each table block is read, and
    so every simulated schedule.
    """
    for user_key, versions in groupby(
        merged, key=lambda entry: internal_key_user_key(entry[0])
    ):
        yield user_key, list(versions)


def resolve_user_entries(
    merged: Iterable[tuple[bytes, bytes]],
    stop_after_user_key: Optional[bytes] = None,
    max_sequence: int = MAX_SEQUENCE,
) -> Iterator[tuple[bytes, bytes]]:
    """Collapse merged internal entries into user-visible (key, value) pairs.

    Each user key's versions go through :func:`resolve_versions`; keys that
    resolve to a tombstone, or to nothing at ``max_sequence``, are hidden.
    ``stop_after_user_key`` bounds range scans without draining the merge.
    """
    for user_key, versions in _by_user_key(merged):
        if stop_after_user_key is not None and user_key > stop_after_user_key:
            return
        resolved = resolve_versions(versions, max_sequence)
        if resolved is not None and resolved[0] is not ValueType.DELETE:
            yield user_key, resolved[1]
        versions = resolved = None  # hold nothing across the next pull


def collapse_internal_entries(
    merged: Iterable[tuple[bytes, bytes]],
    drop_tombstones: bool,
) -> Iterator[tuple[bytes, int, bytes, ValueType]]:
    """Compaction-side collapse: one output entry per user key.

    Unlike :func:`resolve_user_entries` this keeps tombstones (unless the
    compaction reaches the bottommost level, ``drop_tombstones=True``)
    because deeper levels may still hold older versions that the tombstone
    must continue to shadow.

    Yields (user_key, sequence, value, value_type); ``sequence`` is the
    newest sequence seen for the key so the collapsed entry keeps
    shadowing everything it shadowed before.  Output types are ``VALUE``,
    ``DELETE``, or ``MERGE`` (a pure append chain compacted above the
    bottom level, whose base may still live deeper).
    """
    for user_key, versions in _by_user_key(merged):
        value_type, value = resolve_versions(versions)
        if drop_tombstones:
            if value_type is ValueType.DELETE:
                continue
            value_type = ValueType.VALUE
        newest = decode_internal_key(versions[0][0]).sequence
        yield user_key, newest, value, value_type
