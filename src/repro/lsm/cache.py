"""Sharded LRU block cache (``rocksdb::NewLRUCache``).

Caches uncompressed data blocks keyed by (file number, block offset).  The
paper's LSMIO *disables* caching (§3.1.1) — checkpoint data is
write-once-read-rarely, so cache maintenance is pure overhead — and the
``enable_block_cache`` option reproduces that; the cache itself is still a
full implementation because the engine is a general-purpose library and
the read benchmarks exercise it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Optional


class LRUCache:
    """A size-bounded LRU mapping of keys to (value, charge) entries."""

    def __init__(self, capacity: int):
        self._capacity = max(0, int(capacity))
        self._entries: "OrderedDict[Hashable, tuple[object, int]]" = OrderedDict()
        self._usage = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: Hashable) -> Optional[object]:
        """Return the cached value or None, updating recency."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0]

    def insert(self, key: Hashable, value: object, charge: int) -> None:
        """Add/replace an entry accounting ``charge`` bytes, evicting LRU."""
        with self._lock:
            if charge > self._capacity:
                # An entry larger than the whole cache is not worth
                # keeping — and rejecting it must not evict a valid
                # smaller entry already cached under the key.
                return
            old = self._entries.pop(key, None)
            if old is not None:
                self._usage -= old[1]
            self._entries[key] = (value, charge)
            self._usage += charge
            while self._usage > self._capacity and self._entries:
                _, (_, evicted_charge) = self._entries.popitem(last=False)
                self._usage -= evicted_charge

    def erase(self, key: Hashable) -> None:
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._usage -= entry[1]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._usage = 0

    def pop_all(self) -> list:
        """Empty the cache and return its values, counting no hit or miss."""
        with self._lock:
            values = [value for value, _ in self._entries.values()]
            self._entries.clear()
            self._usage = 0
        return values

    @property
    def usage(self) -> int:
        with self._lock:
            return self._usage

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self._hits + self._misses
            return self._hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries
