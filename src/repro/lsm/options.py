"""Engine configuration.

The option set mirrors the knobs the paper turns on RocksDB (§3.1.1):

    "Disabled write-ahead log / compression / caching / compaction;
     exposed an option to write either synchronously or asynchronously;
     exposed an option to use MMAP; exposed options to customize buffer
     size ... and block size."

plus the checksum-type selection RocksDB offers (``kNoChecksum`` etc.),
which matters in pure Python because CRC cost is visible.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import InvalidArgumentError
from repro.util.crc import crc32c
from repro.util.humanize import parse_size


class CompressionType(enum.IntEnum):
    """On-disk block compression codec (byte stored in the block trailer)."""

    NONE = 0
    ZLIB = 1


class ChecksumType(enum.Enum):
    """Per-block / per-record checksum algorithm.

    ``CRC32C`` is the LevelDB/RocksDB format-faithful Castagnoli CRC
    (the numpy slab kernel of :mod:`repro.util.crc`: ~300 MB/s on 64 KiB
    blocks and ~280 MB/s on 4 MiB, against zlib's ~1.8 GB/s on the same
    2-core Xeon VM).  ``ZLIB_CRC32`` uses the C-accelerated CRC-32 from
    :mod:`zlib` and stays the default: at ~300 MB/s a multi-hundred-MB
    checkpoint would spend a second or more in CRC-32C alone (RocksDB
    likewise supports multiple checksum flavours).  ``NONE`` disables
    checksumming, matching RocksDB's ``kNoChecksum``.
    """

    NONE = "none"
    CRC32C = "crc32c"
    ZLIB_CRC32 = "zlib-crc32"

    def incremental(self) -> Callable[..., int]:
        """Return ``fn(data, crc=0) -> crc`` continuing a running checksum.

        ``fn(b, fn(a)) == fn(a + b)`` for every type, which lets the WAL
        and table writers checksum (type byte ‖ payload) without first
        concatenating them.
        """
        if self is ChecksumType.CRC32C:
            return crc32c
        if self is ChecksumType.ZLIB_CRC32:
            return zlib.crc32  # unsigned 32-bit in Python 3: no wrapper
        return lambda data, crc=0: 0


#: LRU block-cache budget in bytes (used when ``enable_block_cache``)
BLOCK_CACHE_CAPACITY = 64 << 20
#: open-table LRU size (LevelDB's ``max_open_files``)
MAX_OPEN_FILES = 1000
#: bloom-filter bits per user key (~1 % false positives)
BLOOM_BITS_PER_KEY = 10
#: L1 byte budget; each deeper level gets ``MAX_BYTES_FOR_LEVEL_MULTIPLIER``
#: times the one above (LevelDB defaults)
MAX_BYTES_FOR_LEVEL_BASE = 256 << 20
MAX_BYTES_FOR_LEVEL_MULTIPLIER = 10


@dataclass
class Options:
    """Database-wide options (a Python rendering of ``rocksdb::Options``)."""

    create_if_missing: bool = True
    error_if_exists: bool = False

    # --- the LSMIO §3.1.1 knob set -------------------------------------
    enable_wal: bool = True
    compression: CompressionType = CompressionType.NONE
    enable_block_cache: bool = True
    enable_compaction: bool = True
    use_mmap_reads: bool = False
    write_buffer_size: int = 32 << 20  # LSMIO/ADIOS2 use a 32 MB buffer.
    block_size: int = 4096
    # --------------------------------------------------------------------

    block_restart_interval: int = 16
    checksum: ChecksumType = ChecksumType.ZLIB_CRC32

    # Compaction geometry (LevelDB defaults).
    num_levels: int = 7
    level0_file_num_compaction_trigger: int = 4
    level0_slowdown_writes_trigger: int = 8
    level0_stop_writes_trigger: int = 12
    target_file_size_base: int = 64 << 20

    # --- subcompaction / stall control ---------------------------------
    #: maximum key-range partitions one compaction may run concurrently
    #: (RocksDB's ``max_subcompactions``).  The partition *boundaries*
    #: are fan-out independent, so any value produces byte-identical
    #: outputs — this only caps concurrency; a plan with boundaries takes
    #: the partitioned path even at 1, where its ranges run one by one.
    max_subcompactions: int = 1
    #: seal a subcompaction output early once it overlaps more than this
    #: many grandparent bytes (0 = 10 x ``target_file_size_base``, the
    #: LevelDB ``ShouldStopBefore`` ratio) — bounds any future merge of
    #: that output into the grandparent level.
    max_grandparent_overlap_bytes: int = 0
    #: smooth stall-aware pacing: ramp a foreground write delay and boost
    #: the compaction rate limiter with L0/debt pressure instead of
    #: slamming into the slowdown/stop triggers.
    compaction_pacing: bool = False
    #: foreground delay (seconds) applied per write at full slowdown
    #: pressure; the pacer ramps quadratically up to this from zero.
    slowdown_delay: float = 1e-3

    # Hook charged with (nbytes, kind) for modeled CPU cost when running
    # under the discrete-event simulation; None outside the sim.
    cpu_charge: Optional[Callable[[int, str], None]] = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        self.write_buffer_size = parse_size(self.write_buffer_size)
        self.block_size = parse_size(self.block_size)
        self.target_file_size_base = parse_size(self.target_file_size_base)
        if isinstance(self.compression, str):
            self.compression = CompressionType[self.compression.upper()]
        if isinstance(self.checksum, str):
            self.checksum = ChecksumType(self.checksum)
        if self.write_buffer_size <= 0:
            raise InvalidArgumentError("write_buffer_size must be positive")
        if self.block_size <= 0:
            raise InvalidArgumentError("block_size must be positive")
        if self.block_restart_interval < 1:
            raise InvalidArgumentError("block_restart_interval must be >= 1")
        if self.num_levels < 2:
            raise InvalidArgumentError("num_levels must be >= 2")
        self.max_grandparent_overlap_bytes = parse_size(
            self.max_grandparent_overlap_bytes
        )
        if self.max_subcompactions < 1:
            raise InvalidArgumentError("max_subcompactions must be >= 1")
        if not (
            0
            < self.level0_file_num_compaction_trigger
            <= self.level0_slowdown_writes_trigger
            <= self.level0_stop_writes_trigger
        ):
            raise InvalidArgumentError(
                "level0 triggers must satisfy "
                "0 < compaction <= slowdown <= stop"
            )
        if self.slowdown_delay < 0:
            raise InvalidArgumentError("slowdown_delay must be >= 0")

    def max_bytes_for_level(self, level: int) -> float:
        """Size budget for ``level`` (L1 = base, ×multiplier per level)."""
        if level < 1:
            raise InvalidArgumentError("levels below 1 have no byte budget")
        return MAX_BYTES_FOR_LEVEL_BASE * (
            MAX_BYTES_FOR_LEVEL_MULTIPLIER ** (level - 1)
        )


@dataclass
class WriteOptions:
    """Per-write options (``rocksdb::WriteOptions``).

    ``sync`` forces an fsync of the WAL after the write.  ``disable_wal``
    skips the log for this write even when the database-wide WAL is on —
    exactly the RocksDB option LSMIO uses, justified because a write
    barrier is called at checkpoint end (§3.1.1).
    """

    sync: bool = False
    disable_wal: bool = False


@dataclass
class ReadOptions:
    """Per-read options (``rocksdb::ReadOptions``).

    ``snapshot`` pins the read to a :meth:`repro.lsm.db.DB.snapshot`
    point: updates sequenced after it are invisible.
    """

    verify_checksums: bool = True
    fill_cache: bool = True
    snapshot: Optional[object] = None
