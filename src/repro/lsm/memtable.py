"""The MemTable: the LSM-tree's C0 component (§2.2 of the paper).

Holds the most recent updates in one list kept in internal-key order
(:func:`~repro.lsm.dbformat.sort_key`): checkpoint keys arrive ascending,
so nearly every insert is an append, and reads bisect.  When
``approximate_memory_usage`` exceeds the write buffer size the DB freezes
the memtable and flushes it to an L0 SSTable — that flush is the large
sequential write the whole paper is about.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, Optional

from repro.lsm.dbformat import ValueType, encode_internal_key, sort_key

# Per-entry bookkeeping overhead counted on top of key and value bytes.  It
# is a fixed charge, not a measurement of this container, because it sets
# where every flush lands and with it every simulated schedule.
_ENTRY_OVERHEAD = 96


class MemTable:
    """Buffered (internal key → value) updates in internal-key order."""

    def __init__(self):
        # Rows are (user_key, -trailer, internal key, value): the first two
        # fields are the row's sort key, so plain tuple order is key order.
        self._rows: list[tuple[bytes, int, bytes, bytes]] = []
        self._memory = 0

    def __len__(self) -> int:
        return len(self._rows)

    def approximate_memory_usage(self) -> int:
        """Bytes of keys+values+overhead currently buffered."""
        return self._memory

    def add(
        self, sequence: int, value_type: ValueType, user_key: bytes, value: bytes
    ) -> None:
        """Insert one update; raises ``ValueError`` if its internal key is buffered."""
        ikey = encode_internal_key(user_key, sequence, value_type)
        key = sort_key(ikey)
        rows = self._rows
        # A 2-tuple sorts before every row it prefixes.
        if rows and rows[-1] > key:
            i = bisect_left(rows, key)
            if rows[i][:2] == key:
                raise ValueError("duplicate internal key inserted into memtable")
            rows.insert(i, key + (ikey, value))
        else:
            rows.append(key + (ikey, value))
        self._memory += len(ikey) + len(value) + _ENTRY_OVERHEAD

    def entries(self) -> Iterator[tuple[bytes, bytes]]:
        """All (internal key, value) pairs in internal-key order."""
        for row in self._rows:
            yield row[2], row[3]

    def seek(self, ikey: bytes) -> Iterator[tuple[bytes, bytes]]:
        """(internal key, value) pairs with internal key >= ``ikey``.

        Readers walk the live memtable without the DB lock, so an insert
        may shift the list between two steps.  Each step therefore bisects
        again past the last row it yielded and checks what it read; a row
        inserted behind the walk is never seen, one inserted ahead is.
        """
        rows = self._rows
        bound = sort_key(ikey)
        while True:
            i = bisect_right(rows, bound)
            if i >= len(rows):
                return
            row = rows[i]
            if row > bound:  # else an insert landed before i: look again
                yield row[2], row[3]
                bound = row

    def versions(
        self, user_key: bytes, bound: tuple[bytes, int]
    ) -> list[tuple[bytes, bytes]]:
        """``user_key``'s (internal key, value) pairs at or after ``bound``.

        ``bound`` is a sort key (:func:`~repro.lsm.dbformat.seek_order`);
        the pairs come newest first.  The point-read form of :meth:`seek`,
        with its rule for walking the live memtable: each step bisects
        again past the last row taken.
        """
        rows = self._rows
        found = []
        while rows:
            i = bisect_right(rows, bound)
            if i >= len(rows):
                break
            row = rows[i]
            if row > bound:  # else an insert landed before i: look again
                if row[0] != user_key:
                    break
                found.append((row[2], row[3]))
                bound = row
        return found

    def smallest_key(self) -> Optional[bytes]:
        return self._rows[0][2] if self._rows else None

    def largest_key(self) -> Optional[bytes]:
        return self._rows[-1][2] if self._rows else None
