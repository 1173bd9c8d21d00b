"""Shared low-level utilities: varint codec, CRC-32C, size parsing, stats,
shared zero buffers."""

from repro.util.varint import (
    decode_fixed32,
    decode_fixed64,
    decode_varint32,
    decode_varint64,
    encode_fixed32,
    encode_fixed64,
    encode_varint32,
    encode_varint64,
)
from repro.util.checkpoint_math import (
    checkpoint_time,
    daly_interval,
    machine_efficiency,
    mtbf_scaled,
    young_interval,
)
from repro.util.crc import crc32c, crc32c_masked, crc32c_unmask
from repro.util.humanize import format_bandwidth, format_size, parse_size
from repro.util.stats import SummaryStats
from repro.util.zeros import zeros

__all__ = [
    "SummaryStats",
    "checkpoint_time",
    "daly_interval",
    "machine_efficiency",
    "mtbf_scaled",
    "young_interval",
    "crc32c",
    "crc32c_masked",
    "crc32c_unmask",
    "decode_fixed32",
    "decode_fixed64",
    "decode_varint32",
    "decode_varint64",
    "encode_fixed32",
    "encode_fixed64",
    "encode_varint32",
    "encode_varint64",
    "format_bandwidth",
    "format_size",
    "parse_size",
    "zeros",
]
