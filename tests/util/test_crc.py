"""Tests for the CRC-32C implementation: published test vectors, and a
differential check of the slab kernel against the per-row slicing-by-8
loop the numpy kernels replaced, kept here verbatim as the reference."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import crc as crc_module
from repro.util.crc import (
    _LANE,
    _SLAB,
    _SLAB_LANES,
    _SMALL,
    _kernel_tables,
    crc32c,
    crc32c_masked,
    crc32c_unmask,
)

_CASTAGNOLI_POLY = 0x82F63B78


def _build_table() -> np.ndarray:
    table = np.empty(256, dtype=np.uint32)
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ (_CASTAGNOLI_POLY if crc & 1 else 0)
        table[i] = crc
    return table


_TABLE = _build_table()
# 8 sliced tables for the slicing-by-8 variant: _TABLE8[j][b] is the CRC of
# byte b followed by j zero bytes.
_TABLE8 = np.empty((8, 256), dtype=np.uint32)
_TABLE8[0] = _TABLE
for _j in range(1, 8):
    _prev = _TABLE8[_j - 1]
    _TABLE8[_j] = _TABLE[_prev & 0xFF] ^ (_prev >> np.uint32(8))


def _reference_crc32c(data: bytes | bytearray | memoryview, crc: int = 0) -> int:
    """Compute CRC-32C of ``data``, optionally continuing from ``crc``."""
    buf = np.frombuffer(data, dtype=np.uint8)
    crc = (~crc) & 0xFFFFFFFF
    n = len(buf)
    head = n % 8
    # Scalar loop over the unaligned head.
    for byte in buf[:head]:
        crc = int(_TABLE[(crc ^ int(byte)) & 0xFF]) ^ (crc >> 8)
    # Slicing-by-8 over the aligned body: each iteration folds 8 bytes.
    body = buf[head:]
    if len(body):
        chunks = body.reshape(-1, 8)
        t = _TABLE8
        c = np.uint32(crc)
        for row in chunks:
            x0 = int(row[0]) ^ (int(c) & 0xFF)
            x1 = int(row[1]) ^ ((int(c) >> 8) & 0xFF)
            x2 = int(row[2]) ^ ((int(c) >> 16) & 0xFF)
            x3 = int(row[3]) ^ ((int(c) >> 24) & 0xFF)
            c = (
                t[7, x0]
                ^ t[6, x1]
                ^ t[5, x2]
                ^ t[4, x3]
                ^ t[3, int(row[4])]
                ^ t[2, int(row[5])]
                ^ t[1, int(row[6])]
                ^ t[0, int(row[7])]
            )
        crc = int(c)
    return (~crc) & 0xFFFFFFFF


crc_seeds = st.integers(min_value=0, max_value=0xFFFFFFFF)


def _around(unit, most):
    """Lengths within a lane of ``unit * k`` for ``k`` in ``1..most``."""
    return st.builds(
        lambda k, offset: max(0, unit * k + offset),
        st.integers(min_value=1, max_value=most),
        st.integers(min_value=-_LANE, max_value=_LANE),
    )


#: around every lane and slab multiple up to three slabs and a lane past
_STRADDLING = st.one_of(_around(_LANE, 3 * _SLAB_LANES), _around(_SLAB, 3))


@st.composite
def payloads(draw):
    """Random bytes of a length drawn uniformly up to a few lanes past
    ``_SMALL`` (the scalar path, the kernel and the boundary between them)
    or straddling a lane or slab multiple (a short first slab, the tail
    loop, several chained slabs)."""
    size = draw(
        st.one_of(st.integers(min_value=0, max_value=_SMALL + 4 * _LANE), _STRADDLING)
    )
    return np.random.default_rng(draw(st.integers(min_value=0))).bytes(size)


class TestCrc32c:
    def test_known_vector_numbers(self):
        # RFC 3720 / iSCSI test vector: 32 zero bytes.
        assert crc32c(b"\x00" * 32) == 0x8A9136AA

    def test_known_vector_ones(self):
        assert crc32c(b"\xff" * 32) == 0x62A8AB43

    def test_known_vector_ascending(self):
        assert crc32c(bytes(range(32))) == 0x46DD794E

    def test_known_vector_descending(self):
        assert crc32c(bytes(range(31, -1, -1))) == 0x113FDB5C

    def test_empty(self):
        assert crc32c(b"") == 0

    def test_differs_from_crc32(self):
        import zlib

        data = b"checkpoint block"
        assert crc32c(data) != zlib.crc32(data)

    def test_incremental_matches_oneshot(self):
        data = b"hello, lustre!" * 7
        oneshot = crc32c(data)
        split = crc32c(data[5:], crc32c(data[:5]))
        assert split == oneshot

    @given(st.binary(max_size=256), st.integers(min_value=1, max_value=255))
    def test_any_extension_changes_crc_or_not_identity(self, data, extra):
        # Sanity: CRC must change when a nonzero byte is appended to
        # empty-extended data in the overwhelming majority of cases; at
        # minimum, the function must be deterministic.
        assert crc32c(data) == crc32c(data)

    @given(st.binary(max_size=512))
    def test_mask_roundtrip(self, data):
        masked = crc32c_masked(data)
        assert crc32c_unmask(masked) == crc32c(data)

    def test_mask_changes_value(self):
        data = b"some data"
        assert crc32c_masked(data) != crc32c(data)

    @given(st.binary(min_size=1, max_size=128))
    def test_single_bitflip_detected(self, data):
        original = crc32c(data)
        flipped = bytearray(data)
        flipped[0] ^= 0x01
        assert crc32c(bytes(flipped)) != original


class TestAgainstReference:
    @given(payloads(), crc_seeds)
    def test_every_length_and_seed(self, data, seed):
        assert crc32c(data, seed) == _reference_crc32c(data, seed)

    @pytest.mark.parametrize(
        "size", [(64 << 10) - 1, 64 << 10, (64 << 10) + 1, (1 << 20) + 13]
    )
    @settings(max_examples=2, deadline=None)
    @given(rng_seed=st.integers(min_value=0), seed=crc_seeds)
    def test_large_sizes(self, size, rng_seed, seed):
        data = np.random.default_rng(rng_seed).bytes(size)
        assert crc32c(data, seed) == _reference_crc32c(data, seed)

    @given(payloads(), st.data())
    def test_split_continuation(self, data, draw):
        cut = draw.draw(st.integers(min_value=0, max_value=len(data)))
        whole = crc32c(data)
        assert crc32c(data[cut:], crc32c(data[:cut])) == whole
        assert whole == _reference_crc32c(data)

    @given(payloads())
    def test_input_types(self, data):
        expected = _reference_crc32c(data)
        assert crc32c(bytearray(data)) == expected
        assert crc32c(memoryview(data)) == expected
        # odd offset inside an aligned buffer: the <u4 view is unaligned
        backing = np.zeros(len(data) + 8, dtype=np.uint8)
        backing[1 : 1 + len(data)] = np.frombuffer(data, dtype=np.uint8)
        assert crc32c(memoryview(backing)[1 : 1 + len(data)]) == expected
        floats = np.frombuffer(data[: len(data) // 8 * 8], dtype=np.float64).copy()
        assert crc32c(floats.data) == _reference_crc32c(floats.tobytes())


def _apply(op, regs):
    return (
        op[0][regs & 0xFF]
        ^ op[1][(regs >> 8) & 0xFF]
        ^ op[2][(regs >> 16) & 0xFF]
        ^ op[3][regs >> 24]
    )


def test_zero_byte_operators_match_scalar_steps():
    """Zero-advance row ``i`` advances a register through the
    ``_SLAB_LANES - 1 - i`` lanes after lane ``i`` and the slab operator
    through one slab of zero bytes: check every row on all 32 basis
    registers against one-byte steps.  Column table ``c`` is the register
    of a byte followed by ``_LANE - 1 - c`` zero bytes: check it on the
    eight one-bit bytes."""
    columns, advance, slab_op = _kernel_tables()
    table = _TABLE.tolist()

    bits = [1 << bit for bit in range(8)]
    regs = [table[b] for b in bits]
    for col in range(_LANE - 1, -1, -1):
        assert columns[col * 256 + np.array(bits)].tolist() == regs, col
        regs = [table[r & 0xFF] ^ (r >> 8) for r in regs]

    basis = np.array([1 << bit for bit in range(32)], dtype=np.uint32)
    regs = basis.tolist()
    rows = advance.reshape(_SLAB_LANES, 4, 256)
    for lane in range(_SLAB_LANES - 1, -1, -1):
        assert _apply(rows[lane], basis).tolist() == regs, lane
        for _ in range(_LANE):
            regs = [table[r & 0xFF] ^ (r >> 8) for r in regs]
    assert _apply(slab_op, basis).tolist() == regs


def test_tables_are_built_on_first_use_not_at_import():
    src = os.path.dirname(os.path.dirname(os.path.dirname(crc_module.__file__)))
    probe = "import repro.util.crc as c; assert c._tables is None"
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", probe], check=True, env=env, timeout=60)


def test_concurrent_first_calls_build_once(monkeypatch):
    """Four threads make the process's first large call at once: the
    tables are built once and every thread gets the reference values."""
    builds = []
    build = crc_module._build_tables

    def counted_build():
        builds.append(threading.get_ident())
        return build()

    monkeypatch.setattr(crc_module, "_tables", None)
    monkeypatch.setattr(crc_module, "_build_tables", counted_build)
    inputs = [
        np.random.default_rng(worker).bytes(2 * _SLAB + 100 * worker + 7)
        for worker in range(4)
    ]
    expected = [_reference_crc32c(data, 0x5EED) for data in inputs]
    results = [None] * 4
    start = threading.Barrier(4, timeout=10)

    def worker(i):
        start.wait()
        results[i] = crc32c(inputs[i], 0x5EED)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == expected
    assert len(builds) == 1
