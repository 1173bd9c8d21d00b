"""CRC-32C (Castagnoli) with LevelDB's mask, implemented on numpy.

LevelDB/RocksDB checksum every block and WAL record with CRC-32C and then
*mask* the CRC (rotate + offset) so that storing a CRC inside CRC-checked
data does not produce degenerate values.  We reproduce both.

CRC is linear over GF(2): the register after a byte string is the XOR of
what each byte contributes on its own, and a byte's contribution depends
only on its value and on how many bytes follow it.  :func:`crc32c` hashes
inputs of :data:`_SMALL` bytes or more in one pass over fixed-size slabs
of :data:`_SLAB` bytes.  Up to four slabs go through each round of numpy
calls, so a call's temporaries stay bounded whatever the input size:

* **lanes** — a slab is cut into lanes of :data:`_LANE` bytes.  Column
  table ``c`` holds the register of byte ``b`` followed by
  ``_LANE - 1 - c`` zero bytes, so one ``take`` of every byte from its
  column's table and one XOR-reduce across each lane give every lane's
  register at once.
* **fold** — lane ``i`` of a slab is followed by ``_SLAB_LANES - 1 - i``
  lanes; the zero-advance table maps each byte of its register through
  that many zero lanes.  One more ``take`` of the lane registers' bytes
  and an XOR-reduce give the slab's register.
* **chain** — slabs end at the end of the lane body, so only the first
  one may be short, and it reads the zero-advance rows of the last lanes.
  Each later slab advances the running register through one slab of zero
  bytes (a single cached operator) and XORs in its own register.  The
  incoming register enters lane 0 as if XORed into its first four bytes.
* **scalar** — inputs shorter than :data:`_SMALL` bytes, and the
  ``< _LANE``-byte tail after the lanes, run through a plain Python
  table loop, which beats the numpy set-up cost below that size.

The tables (about 1.1 MiB of ``uint32``) are built on the first call
that needs them, not at import, and are read-only afterwards.
"""

from __future__ import annotations

import threading

import numpy as np

_CASTAGNOLI_POLY = 0x82F63B78
_MASK_DELTA = 0xA282EAD8

#: bytes per lane: one column table per byte position
_LANE = 64
#: lanes per slab; the zero-advance table holds 4 KiB per lane
_SLAB_LANES = 256
_SLAB = _LANE * _SLAB_LANES
#: lanes per round of numpy calls, which bounds the temporaries
_PASS_LANES = 4 * _SLAB_LANES
#: below this many bytes the Python loop is faster than the numpy kernel
#: (they cross at 130-180 B on a 2-core x86-64 VM, depending on the tail)
_SMALL = 192


def _build_table() -> np.ndarray:
    crc = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        crc = (crc >> 1) ^ (np.uint32(_CASTAGNOLI_POLY) * (crc & 1))
    return crc


_TABLE = _build_table()
_TABLE_INTS = _TABLE.tolist()
#: offset of each column's table in the flattened column tables
_COLUMN_BASE = np.arange(_LANE, dtype=np.uint16) * np.uint16(256)
#: offset of each (lane, register byte) table in the flattened
#: zero-advance tables
_ADVANCE_BASE = np.tile(
    np.arange(_SLAB_LANES, dtype=np.intp)[:, None] * 1024
    + np.arange(4, dtype=np.intp) * 256,
    (_PASS_LANES // _SLAB_LANES, 1),
)

_tables = None
_tables_lock = threading.Lock()


def _zero_step(reg: np.ndarray) -> np.ndarray:
    """Advance registers through one zero byte."""
    return _TABLE[reg & 0xFF] ^ (reg >> np.uint32(8))


def _apply(op: np.ndarray, reg):
    """Apply a linear operator, given as four byte tables, to registers."""
    return (
        op[0][reg & 0xFF]
        ^ op[1][(reg >> 8) & 0xFF]
        ^ op[2][(reg >> 16) & 0xFF]
        ^ op[3][reg >> 24]
    )


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column tables, zero-advance tables and the slab operator."""
    columns = np.empty((_LANE, 256), dtype=np.uint32)
    columns[-1] = _TABLE
    for col in range(_LANE - 2, -1, -1):
        columns[col] = _zero_step(columns[col + 1])
    # Row k maps byte b to register b << 8*k: the identity operator.
    identity = np.arange(256, dtype=np.uint32) << (
        np.arange(4, dtype=np.uint32)[:, None] * np.uint32(8)
    )
    lane_op = identity
    for _ in range(_LANE):
        lane_op = _zero_step(lane_op)
    advance = np.empty((_SLAB_LANES, 4, 256), dtype=np.uint32)
    advance[-1] = identity
    for lane in range(_SLAB_LANES - 2, -1, -1):
        advance[lane] = _apply(lane_op, advance[lane + 1])
    slab_op = _apply(lane_op, advance[0])
    tables = (columns.reshape(-1), advance.reshape(-1), slab_op)
    for table in tables:
        table.flags.writeable = False
    return tables


def _kernel_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's tables, built by the first caller that needs them."""
    global _tables
    if _tables is None:
        with _tables_lock:
            if _tables is None:
                _tables = _build_tables()
    return _tables


def _lanes_register(body: np.ndarray, reg: int) -> int:
    """Register after the lanes (rows of ``body``), starting from ``reg``."""
    columns, advance, slab_op = _kernel_tables()
    lanes = len(body)
    # The incoming register XORed into lane 0's first four bytes.
    seed = (
        columns[reg & 0xFF]
        ^ columns[256 + ((reg >> 8) & 0xFF)]
        ^ columns[512 + ((reg >> 16) & 0xFF)]
        ^ columns[768 + (reg >> 24)]
    )
    reg = 0
    start = 0
    stop = lanes % _SLAB_LANES or min(lanes, _PASS_LANES)
    while start < lanes:
        count = stop - start
        # Adding in uint16 and then widening is faster than one uint8 +
        # intp add.  Indices are in range by construction; "wrap" skips
        # take's bounds-error path.
        index = (body[start:stop] + _COLUMN_BASE).astype(np.intp)
        regs = np.bitwise_xor.reduce(np.take(columns, index, mode="wrap"), axis=1)
        if start == 0:
            regs[0] ^= seed
        reg_bytes = regs.astype("<u4", copy=False).view(np.uint8).reshape(count, 4)
        terms = np.take(advance, reg_bytes + _ADVANCE_BASE[-count:], mode="wrap")
        slabs = np.bitwise_xor.reduce(
            terms.reshape(-1, 4 * min(count, _SLAB_LANES)), axis=1
        )
        for slab in slabs:
            reg = int(_apply(slab_op, reg) ^ slab)
        start, stop = stop, min(stop + _PASS_LANES, lanes)
    return reg


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
        body = np.frombuffer(view, dtype=np.uint8, count=lanes * _LANE)
        reg = _lanes_register(body.reshape(lanes, _LANE), reg)
        view = view[lanes * _LANE :]
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
