"""Value serialization for the typed K/V API and the ADIOS2 plugin.

"When implementing multi-dimensional writes as an ADIOS2 plugin we use a
simple serialization into a string to be stored in the lower layers of our
stack" (§3.1.7).  The wire form is a compact self-describing header — a
magic byte, a type tag, and for arrays the dtype string and shape — then
raw little-endian payload bytes.
"""

from __future__ import annotations

import math
import re
import struct
from typing import Any, Union

import numpy as np

from repro.errors import CorruptionError, InvalidArgumentError

_MAGIC = 0xB5

_TAG_BYTES = 0
_TAG_STR = 1
_TAG_INT = 2
_TAG_FLOAT = 3
_TAG_ARRAY = 4
_TAG_JSON = 5

_DTYPE_STR = re.compile(rb"[<>|=][biufcSUVMm][0-9]+(\[[0-9A-Za-z]+\])?")


def serialize_value(value: Any) -> bytes:
    """Encode a supported Python/numpy value to bytes."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes([_MAGIC, _TAG_BYTES]) + bytes(value)
    if isinstance(value, str):
        return bytes([_MAGIC, _TAG_STR]) + value.encode("utf-8")
    if isinstance(value, bool):
        raise InvalidArgumentError("bool values are not supported")
    if isinstance(value, int):
        return bytes([_MAGIC, _TAG_INT]) + struct.pack("<q", value)
    if isinstance(value, float):
        return bytes([_MAGIC, _TAG_FLOAT]) + struct.pack("<d", value)
    if isinstance(value, (dict, list, tuple)):
        import json

        try:
            body = json.dumps(value).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(
                f"containers must be JSON-serializable: {exc}"
            ) from exc
        return bytes([_MAGIC, _TAG_JSON]) + body
    if isinstance(value, np.ndarray):
        dtype = value.dtype.str.encode("ascii")
        header = struct.pack("<BB", len(dtype), value.ndim)
        header += dtype
        header += struct.pack(f"<{value.ndim}q", *value.shape)
        return (
            bytes([_MAGIC, _TAG_ARRAY])
            + header
            + np.ascontiguousarray(value).tobytes()
        )
    raise InvalidArgumentError(f"unsupported value type {type(value)!r}")


def deserialize_value(data: bytes) -> Union[bytes, str, int, float, np.ndarray]:
    """Decode bytes produced by :func:`serialize_value`.

    Raises :class:`~repro.errors.CorruptionError` for any input that
    :func:`serialize_value` cannot have produced.
    """
    view = memoryview(data)
    if len(view) < 2 or view[0] != _MAGIC:
        raise CorruptionError("bad serialized value header")
    tag = view[1]
    body = view[2:]
    if tag == _TAG_BYTES:
        return bytes(body)
    if tag == _TAG_STR:
        try:
            return str(body, "utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptionError("bad str payload") from exc
    if tag == _TAG_INT:
        if len(body) != 8:
            raise CorruptionError("bad int payload")
        return struct.unpack("<q", body)[0]
    if tag == _TAG_FLOAT:
        if len(body) != 8:
            raise CorruptionError("bad float payload")
        return struct.unpack("<d", body)[0]
    if tag == _TAG_JSON:
        import json

        try:
            return json.loads(str(body, "utf-8"))
        except (ValueError, RecursionError) as exc:
            raise CorruptionError("bad JSON payload") from exc
    if tag == _TAG_ARRAY:
        return _deserialize_array(body)
    raise CorruptionError(f"unknown value tag {tag}")


def _deserialize_array(body: memoryview) -> np.ndarray:
    """Decode an array body; the payload is copied once, into the result."""
    if len(body) < 2:
        raise CorruptionError("bad array header")
    dtype_len, ndim = struct.unpack_from("<BB", body, 0)
    pos = 2 + dtype_len + 8 * ndim
    if len(body) < pos:
        raise CorruptionError("truncated array header")
    # Parse only the form ``dtype.str`` takes (byte order, kind, item size,
    # datetime unit): numpy's parser raises SyntaxError on some other input.
    spec = bytes(body[2 : 2 + dtype_len])
    if not _DTYPE_STR.fullmatch(spec):
        raise CorruptionError(f"bad array dtype {spec!r}")
    try:
        dtype = np.dtype(spec.decode("ascii"))
    except (TypeError, ValueError) as exc:
        raise CorruptionError(f"bad array dtype {spec!r}") from exc
    shape = struct.unpack_from(f"<{ndim}q", body, 2 + dtype_len)
    expected = math.prod(shape) * dtype.itemsize
    payload = body[pos:]
    if len(payload) != expected:
        raise CorruptionError(
            f"array payload size {len(payload)} != expected {expected}"
        )
    try:
        return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
    except ValueError as exc:
        raise CorruptionError(f"bad array payload: {exc}") from exc
