"""Bloom filter policy (RocksDB full-filter style).

One filter covers a whole SSTable; a negative probe lets a read skip the
table without touching its index or data blocks.  That matters directly
for the paper's Figure 10: LSMIO's point-lookup reads traverse every L0
table when compaction is disabled, and blooms keep that traversal from
costing a block read per table.

Hashing is double hashing over a 64-bit FNV-1a base hash, k probes derived
as ``h1 + i*h2`` — the standard Kirsch–Mitzenmacher construction.
"""

from __future__ import annotations

import math

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


class BloomFilter:
    """Immutable probabilistic set over byte-string keys."""

    def __init__(self, bits: bytearray, num_probes: int):
        self._bits = bits
        self._nbits = len(bits) * 8
        self._num_probes = num_probes

    @classmethod
    def build(cls, keys: list[bytes], bits_per_key: int = 10) -> "BloomFilter":
        """Construct a filter sized for ``keys`` at ``bits_per_key``."""
        num_probes = max(1, min(30, round(bits_per_key * math.log(2))))
        nbits = max(64, len(keys) * bits_per_key)
        nbytes = (nbits + 7) // 8
        nbits = nbytes * 8
        bits = bytearray(nbytes)
        for key in keys:
            h = _fnv1a(key)
            h1 = h & 0xFFFFFFFF
            h2 = (h >> 32) | 1  # odd, so probes cycle through the table
            for i in range(num_probes):
                pos = (h1 + i * h2) % nbits
                bits[pos >> 3] |= 1 << (pos & 7)
        return cls(bits, num_probes)

    def may_contain(self, key: bytes) -> bool:
        """False ⇒ definitely absent; True ⇒ probably present."""
        nbits = self._nbits
        if nbits == 0:
            return True
        h = _fnv1a(key)
        h1 = h & 0xFFFFFFFF
        h2 = (h >> 32) | 1
        for i in range(self._num_probes):
            pos = (h1 + i * h2) % nbits
            if not self._bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    def encode(self) -> bytes:
        """Serialize as bit array + trailing probe-count byte."""
        return bytes(self._bits) + bytes([self._num_probes])

    @classmethod
    def decode(cls, data: bytes) -> "BloomFilter":
        if not data:
            return cls(bytearray(), 1)
        return cls(bytearray(data[:-1]), data[-1])

    @property
    def num_probes(self) -> int:
        return self._num_probes

    def __len__(self) -> int:
        """Size of the bit array in bits."""
        return self._nbits
