"""Tests for the CRC-32C implementation: published test vectors, and a
differential check of the lane-parallel kernel against the per-row
slicing-by-8 loop it replaced, kept here verbatim as the reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.crc import _LANE, _SMALL, _zero_op, crc32c, crc32c_masked, crc32c_unmask

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


@st.composite
def payloads(draw, max_size=3 * _SMALL):
    """Random bytes of a uniformly drawn length, so the scalar path, the
    lane path and the boundary between them are all exercised."""
    size = draw(st.integers(min_value=0, max_value=max_size))
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


def test_zero_byte_operators_match_scalar_steps():
    """Operator ``j`` advances a register through ``_LANE << j`` zero bytes:
    check it on all 32 basis registers against one-byte steps."""
    basis = np.array([1 << bit for bit in range(32)], dtype=np.uint32)
    regs = basis.tolist()
    table = _TABLE.tolist()
    steps = 0
    for level in range(11):
        while steps < _LANE << level:
            regs = [table[r & 0xFF] ^ (r >> 8) for r in regs]
            steps += 1
        op = _zero_op(level)
        got = (
            op[0][basis & 0xFF]
            ^ op[1][(basis >> 8) & 0xFF]
            ^ op[2][(basis >> 16) & 0xFF]
            ^ op[3][basis >> 24]
        )
        assert got.tolist() == regs, level
