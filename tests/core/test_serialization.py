"""Tests for typed-value serialization (§3.1.7)."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import CorruptionError, InvalidArgumentError
from repro.core.serialization import (
    _MAGIC,
    _TAG_ARRAY,
    _TAG_JSON,
    _TAG_STR,
    deserialize_value,
    serialize_value,
)


class TestScalars:
    def test_bytes_roundtrip(self):
        assert deserialize_value(serialize_value(b"\x00\xffraw")) == b"\x00\xffraw"

    def test_str_roundtrip(self):
        assert deserialize_value(serialize_value("héllo")) == "héllo"

    def test_int_roundtrip(self):
        for value in (0, -1, 2**62, -(2**62)):
            assert deserialize_value(serialize_value(value)) == value

    def test_float_roundtrip(self):
        for value in (0.0, -1.5, 3.141592653589793, float("inf")):
            assert deserialize_value(serialize_value(value)) == value

    def test_bool_rejected(self):
        with pytest.raises(InvalidArgumentError):
            serialize_value(True)

    def test_unsupported_type_rejected(self):
        with pytest.raises(InvalidArgumentError):
            serialize_value(object())

    def test_json_containers_roundtrip(self):
        payload = {"step": 7, "coords": [1, 2.5, "z"], "nested": {"a": None}}
        assert deserialize_value(serialize_value(payload)) == payload

    def test_non_json_container_rejected(self):
        with pytest.raises(InvalidArgumentError):
            serialize_value({"bad": object()})

    @given(st.binary(max_size=256))
    def test_bytes_property(self, data):
        assert deserialize_value(serialize_value(data)) == data

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_int_property(self, value):
        assert deserialize_value(serialize_value(value)) == value


class TestArrays:
    def test_1d(self):
        arr = np.arange(10, dtype=np.float64)
        out = deserialize_value(serialize_value(arr))
        np.testing.assert_array_equal(out, arr)
        assert out.dtype == arr.dtype

    def test_multidimensional(self):
        arr = np.arange(24, dtype=np.int32).reshape(2, 3, 4)
        out = deserialize_value(serialize_value(arr))
        np.testing.assert_array_equal(out, arr)
        assert out.shape == (2, 3, 4)

    def test_zero_dim(self):
        arr = np.array(7.5)
        out = deserialize_value(serialize_value(arr))
        assert out.shape == ()
        assert float(out) == 7.5

    def test_empty(self):
        arr = np.empty((0, 3), dtype=np.float32)
        out = deserialize_value(serialize_value(arr))
        assert out.shape == (0, 3)

    def test_non_contiguous_input(self):
        arr = np.arange(16).reshape(4, 4)[:, ::2]
        out = deserialize_value(serialize_value(arr))
        np.testing.assert_array_equal(out, arr)

    def test_result_is_writable_copy(self):
        arr = np.zeros(4)
        out = deserialize_value(serialize_value(arr))
        out[0] = 1  # must not raise (frombuffer alone would be readonly)

    @given(
        hnp.arrays(
            dtype=st.sampled_from([np.int32, np.float64, np.uint8]),
            shape=hnp.array_shapes(max_dims=3, max_side=8),
        )
    )
    def test_array_property(self, arr):
        out = deserialize_value(serialize_value(arr))
        np.testing.assert_array_equal(out, arr)


class TestCorruption:
    def test_bad_magic(self):
        with pytest.raises(CorruptionError):
            deserialize_value(b"\x00\x01data")

    def test_empty(self):
        with pytest.raises(CorruptionError):
            deserialize_value(b"")

    def test_truncated_int(self):
        data = serialize_value(42)
        with pytest.raises(CorruptionError):
            deserialize_value(data[:-1])

    def test_truncated_array(self):
        data = serialize_value(np.arange(8))
        with pytest.raises(CorruptionError):
            deserialize_value(data[:-3])

    def test_unknown_tag(self):
        with pytest.raises(CorruptionError):
            deserialize_value(bytes([0xB5, 200]) + b"x")

    def test_truncated_array_header(self):
        data = serialize_value(np.arange(8).reshape(2, 4))
        for cut in range(3, len(data) - 64):
            with pytest.raises(CorruptionError):
                deserialize_value(data[:cut])

    def test_unknown_dtype(self):
        body = struct.pack("<BB", 3, 1) + b"<z8" + struct.pack("<q", 1)
        with pytest.raises(CorruptionError):
            deserialize_value(bytes([_MAGIC, _TAG_ARRAY]) + body + bytes(8))

    def test_non_ascii_dtype(self):
        body = struct.pack("<BB", 3, 1) + b"<\xe9\x88" + struct.pack("<q", 1)
        with pytest.raises(CorruptionError):
            deserialize_value(bytes([_MAGIC, _TAG_ARRAY]) + body + bytes(8))

    def test_non_utf8_str(self):
        with pytest.raises(CorruptionError):
            deserialize_value(bytes([_MAGIC, _TAG_STR]) + b"\xff\xfe")

    def test_deeply_nested_json(self):
        with pytest.raises(CorruptionError):
            deserialize_value(bytes([_MAGIC, _TAG_JSON]) + b"[" * 100_000)


_ARRAY_DTYPES = st.one_of(
    hnp.boolean_dtypes(),
    hnp.integer_dtypes(),
    hnp.unsigned_integer_dtypes(),
    hnp.floating_dtypes(),
    hnp.complex_number_dtypes(),
    hnp.byte_string_dtypes(),
    hnp.unicode_string_dtypes(),
    hnp.datetime64_dtypes(),
    hnp.timedelta64_dtypes(),
)

#: any code point UTF-8 can encode, drawn without hypothesis's Unicode
#: database (building it on first use trips the too-slow health check)
_TEXT = st.text(
    st.integers(min_value=0, max_value=0x10FFFF)
    .filter(lambda point: not 0xD800 <= point < 0xE000)
    .map(chr)
)

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | _TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=12,
)

_SUPPORTED = st.one_of(
    st.binary(max_size=64),
    _TEXT,
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(),
    _JSON.filter(lambda value: isinstance(value, (list, dict))),
    hnp.arrays(_ARRAY_DTYPES, hnp.array_shapes(min_dims=0, max_dims=3, max_side=4)),
)


@st.composite
def _array_bodies(draw):
    """Array encodings with a drawn dtype string, rank, shape and payload."""
    dtype = draw(
        st.sampled_from([b"<f8", b"|u1", b"<M8[s]", b"|O", b"<z8", b"f8", b"<V0"])
        | st.binary(max_size=8)
    )
    shape = draw(st.lists(st.integers(min_value=-2, max_value=3), max_size=3))
    head = struct.pack("<BB", len(dtype), len(shape)) + dtype
    head += struct.pack(f"<{len(shape)}q", *shape)
    return bytes([_MAGIC, _TAG_ARRAY]) + head + draw(st.binary(max_size=48))


@st.composite
def _damaged(draw):
    """A valid encoding, truncated or with one byte overwritten."""
    data = bytearray(serialize_value(draw(_SUPPORTED)))
    cut = draw(st.integers(min_value=0, max_value=len(data)))
    if draw(st.booleans()) and cut < len(data):
        data[cut] = draw(st.integers(min_value=0, max_value=255))
        return bytes(data)
    return bytes(data[:cut])


def _same(got, want):
    if isinstance(want, np.ndarray):
        return (
            isinstance(got, np.ndarray)
            and got.dtype == want.dtype
            and got.shape == want.shape
            and got.tobytes() == want.tobytes()
        )
    if isinstance(want, float):
        return type(got) is float and struct.pack("<d", got) == struct.pack("<d", want)
    return type(got) is type(want) and got == want


class TestFuzz:
    """Any byte string decodes or raises CorruptionError, never another
    error, so a damaged block cannot escape a restore's fallback."""

    @given(
        st.binary(max_size=64)
        | st.builds(
            lambda tag, body: bytes([_MAGIC, tag]) + body,
            st.integers(min_value=0, max_value=6),
            st.binary(max_size=64),
        )
        | _array_bodies()
        | _damaged()
    )
    def test_decodes_or_raises_corruption(self, data):
        try:
            deserialize_value(data)
        except CorruptionError:
            pass

    @given(_SUPPORTED)
    def test_supported_values_roundtrip(self, value):
        assert _same(deserialize_value(serialize_value(value)), value)
