"""CRC-32C (Castagnoli) with LevelDB's mask, implemented on numpy.

LevelDB/RocksDB checksum every block and WAL record with CRC-32C and then
*mask* the CRC (rotate + offset) so that storing a CRC inside CRC-checked
data does not produce degenerate values.  We reproduce both.

CRC is linear over GF(2): the register after hashing ``a + b`` is the
register after ``a`` advanced through ``len(b)`` zero bytes, XOR the
register of ``b`` hashed from zero.  :func:`crc32c` uses that twice, so
its Python loop runs a fixed number of times per input rather than once
per eight input bytes:

* **lanes** — the body is cut into lanes of :data:`_LANE` bytes and every
  lane is hashed from a zero register at once, slicing-by-8 over a
  ``<u4`` view: each step is one numpy gather per ``_TABLE8`` row across
  all lanes, and there are ``_LANE / 8`` steps.  The incoming register is
  XORed into lane 0 only.
* **fold** — neighbouring lane registers are combined pairwise in
  ``log2(lanes)`` vectorized steps.  Step ``j`` advances each left
  register through ``_LANE * 2**j`` zero bytes with a cached operator
  (:func:`_zero_op`, four 256-entry byte tables derived by squaring)
  and XORs in its right neighbour.
* **scalar** — inputs shorter than :data:`_SMALL` bytes, and the
  ``< _LANE``-byte tail after the lanes, run through a plain Python
  table loop, which beats the numpy set-up cost below that size.
"""

from __future__ import annotations

import functools

import numpy as np

_CASTAGNOLI_POLY = 0x82F63B78
_MASK_DELTA = 0xA282EAD8

#: bytes per lane: two slicing-by-8 steps, and the first fold operator is
#: the square of the 8-zero-byte operator ``_TABLE8`` already holds
_LANE = 16
#: below this many bytes the Python loop is faster than the lane set-up
#: (crossover measured at ~900 B on a 2-core x86-64 VM)
_SMALL = 1024


def _build_table() -> np.ndarray:
    crc = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        crc = (crc >> 1) ^ (np.uint32(_CASTAGNOLI_POLY) * (crc & 1))
    return crc


_TABLE = _build_table()
_TABLE_INTS = _TABLE.tolist()
# 8 sliced tables for the slicing-by-8 variant: _TABLE8[j][b] is the CRC of
# byte b followed by j zero bytes.
_TABLE8 = np.empty((8, 256), dtype=np.uint32)
_TABLE8[0] = _TABLE
for _j in range(1, 8):
    _prev = _TABLE8[_j - 1]
    _TABLE8[_j] = _TABLE[_prev & 0xFF] ^ (_prev >> np.uint32(8))
_ZERO = np.zeros(1, dtype=np.uint32)


def _apply(op: np.ndarray, reg: np.ndarray) -> np.ndarray:
    """Apply a linear operator, given as four byte tables, to registers."""
    return (
        op[0][reg & 0xFF]
        ^ op[1][(reg >> 8) & 0xFF]
        ^ op[2][(reg >> 16) & 0xFF]
        ^ op[3][reg >> 24]
    )


@functools.cache
def _zero_op(level: int) -> np.ndarray:
    """Operator advancing a register through ``_LANE << level`` zero bytes.

    Row ``k`` maps byte ``b`` to the result for register ``b << 8*k``.
    Each level squares the one below; the cache holds one 4 KiB table per
    level, ``log2(len(data) / _LANE)`` of them at most.
    """
    half = _zero_op(level - 1) if level else _TABLE8[7:3:-1]
    op = _apply(half, half)
    op.flags.writeable = False
    return op


def _lane_registers(words: np.ndarray, reg: int) -> np.ndarray:
    """Register of every lane (rows of ``words``), lane 0 seeded by ``reg``."""
    t0, t1, t2, t3, t4, t5, t6, t7 = _TABLE8
    regs = np.zeros(len(words), dtype=np.uint32)
    regs[0] = reg
    for col in range(0, _LANE // 4, 2):
        lo = words[:, col] ^ regs
        hi = words[:, col + 1]
        regs = (
            t7[lo & 0xFF] ^ t6[(lo >> 8) & 0xFF]
            ^ t5[(lo >> 16) & 0xFF] ^ t4[lo >> 24]
            ^ t3[hi & 0xFF] ^ t2[(hi >> 8) & 0xFF]
            ^ t1[(hi >> 16) & 0xFF] ^ t0[hi >> 24]
        )
    return regs


def _fold(regs: np.ndarray) -> int:
    """Combine consecutive lane registers into the register of the whole."""
    level = 0
    while len(regs) > 1:
        if len(regs) & 1:
            # A leading zero lane is a no-op: zero bytes from a zero
            # register leave it zero, and lane 0 already carries the seed.
            regs = np.concatenate((_ZERO, regs))
        regs = _apply(_zero_op(level), regs[0::2]) ^ regs[1::2]
        level += 1
    return int(regs[0])


def _update(reg: int, data) -> int:
    """Advance ``reg`` byte by byte over ``data`` (an iterable of ints)."""
    table = _TABLE_INTS
    for byte in data:
        reg = table[(reg ^ byte) & 0xFF] ^ (reg >> 8)
    return reg


def crc32c(data: bytes | bytearray | memoryview, crc: int = 0) -> int:
    """Compute CRC-32C of ``data``, optionally continuing from ``crc``."""
    view = memoryview(data).cast("B")
    reg = ~crc & 0xFFFFFFFF
    if len(view) >= _SMALL:
        lanes = len(view) // _LANE
        body = lanes * _LANE
        words = np.frombuffer(view, dtype="<u4", count=body // 4)
        reg = _fold(_lane_registers(words.reshape(lanes, _LANE // 4), reg))
        view = view[body:]
    return ~_update(reg, view) & 0xFFFFFFFF


def mask_crc(crc: int) -> int:
    """LevelDB's mask of a 32-bit CRC (safe to embed in checked data)."""
    return (((crc >> 15) | (crc << 17)) + _MASK_DELTA) & 0xFFFFFFFF


def crc32c_masked(data: bytes | bytearray | memoryview) -> int:
    """CRC-32C with LevelDB's mask applied."""
    return mask_crc(crc32c(data))


def crc32c_unmask(masked: int) -> int:
    """Invert :func:`crc32c_masked`."""
    rot = (masked - _MASK_DELTA) & 0xFFFFFFFF
    return ((rot >> 17) | (rot << 15)) & 0xFFFFFFFF
