"""LSMIO configuration: the paper's §3.1.1 customization set, as options.

The defaults *are* the paper's configuration: WAL off, compression off,
block cache off, compaction off, 32 MB write buffer.  ``to_engine_options``
renders them onto the underlying LSM engine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import InvalidArgumentError
from repro.lsm.options import ChecksumType, CompressionType, Options
from repro.util.humanize import parse_size


class Backend(enum.Enum):
    """Which LSM-store behaviour to emulate (§3.1.2).

    ``ROCKSDB`` writes through directly (the WAL can be disabled).
    ``LEVELDB`` cannot disable its WAL, so LSMIO aggregates updates in a
    ``WriteBatch`` and applies them at ``stopBatch``/``writeBarrier``.
    """

    ROCKSDB = "rocksdb"
    LEVELDB = "leveldb"


@dataclass
class LsmioOptions:
    """User-facing configuration for stores and managers."""

    backend: Backend = Backend.ROCKSDB

    # --- the §3.1.1 knobs, paper defaults -------------------------------
    enable_wal: bool = False
    enable_compression: bool = False
    enable_caching: bool = False
    enable_compaction: bool = False
    #: True → puts return only after reaching the engine and (for sync
    #: barriers) stable storage; False → flushes overlap computation and
    #: ``write_barrier`` collects them (the paper's async mode).
    sync_writes: bool = False
    use_mmap: bool = False
    #: in-memory aggregation buffer (matches ADIOS2's BufferChunkSize in
    #: the paper's benchmarks)
    write_buffer_size: int | str = "32M"
    block_size: int | str = "4K"
    # ---------------------------------------------------------------------

    checksum: str | ChecksumType = ChecksumType.ZLIB_CRC32
    bloom_bits_per_key: int = 10
    #: charge hook for modeled CPU cost under simulation (None = off)
    cpu_charge: Optional[object] = field(default=None, repr=False)

    #: I/O admission policy applied to the backing client's scheduler
    #: ("fifo" | "strict" | "drr"); None keeps the cluster's configured
    #: policy (fifo by default — the bit-identical pass-through)
    io_policy: Optional[str] = None
    #: cap on COMPACTION-class bytes/s at the client (token bucket);
    #: None keeps the cluster default, 0 disables throttling
    compaction_bandwidth: Optional[float | str] = None

    #: L0 file counts where foreground writes slow down / park outright
    #: (only meaningful with ``enable_compaction``); None keeps the
    #: engine defaults (8 / 12)
    level0_slowdown_writes_trigger: Optional[int] = None
    level0_stop_writes_trigger: Optional[int] = None
    #: key-range partitions one compaction may run concurrently; the
    #: partition boundaries are fan-out independent so any value yields
    #: byte-identical tables — this only sets the concurrency cap
    max_subcompactions: int = 1
    #: stall-aware pacing: smooth foreground write delay + compaction
    #: rate-limiter boost driven by L0/debt pressure (needs
    #: ``enable_compaction``)
    compaction_pacing: bool = False

    #: node-local burst-buffer tier configuration
    #: (:class:`~repro.bb.device.BurstBufferConfig` or a kwargs dict);
    #: None — the default — writes straight to the base env, bit-identical
    #: to the pre-tier code path.  The config's ``device`` field is
    #: filled in on first use so reusing the same options object across
    #: a simulated restart reopens the same (possibly dirty) device.
    burst_buffer: Optional[object] = None

    def __post_init__(self) -> None:
        if isinstance(self.backend, str):
            self.backend = Backend(self.backend.lower())
        self.write_buffer_size = parse_size(self.write_buffer_size)
        self.block_size = parse_size(self.block_size)
        if self.write_buffer_size <= 0 or self.block_size <= 0:
            raise InvalidArgumentError("buffer and block size must be positive")
        if isinstance(self.checksum, str):
            self.checksum = ChecksumType(self.checksum)
        if self.io_policy is not None and self.io_policy not in (
            "fifo", "strict", "drr",
        ):
            raise InvalidArgumentError(
                f"unknown io_policy {self.io_policy!r} "
                "(expected fifo, strict, or drr)"
            )
        if self.compaction_bandwidth is not None:
            self.compaction_bandwidth = float(
                parse_size(self.compaction_bandwidth)
            )
            if self.compaction_bandwidth < 0:
                raise InvalidArgumentError(
                    "compaction_bandwidth must be >= 0"
                )
        if self.max_subcompactions < 1:
            raise InvalidArgumentError("max_subcompactions must be >= 1")
        for name in (
            "level0_slowdown_writes_trigger",
            "level0_stop_writes_trigger",
        ):
            value = getattr(self, name)
            if value is not None and int(value) < 1:
                raise InvalidArgumentError(f"{name} must be >= 1")
        if isinstance(self.burst_buffer, dict):
            from repro.bb.device import BurstBufferConfig

            self.burst_buffer = BurstBufferConfig(**self.burst_buffer)

    def to_engine_options(self) -> Options:
        """Render onto the LSM engine's option set."""
        extra: dict = {}
        if self.level0_slowdown_writes_trigger is not None:
            extra["level0_slowdown_writes_trigger"] = int(
                self.level0_slowdown_writes_trigger
            )
        if self.level0_stop_writes_trigger is not None:
            extra["level0_stop_writes_trigger"] = int(
                self.level0_stop_writes_trigger
            )
        return Options(
            max_subcompactions=self.max_subcompactions,
            compaction_pacing=self.compaction_pacing,
            enable_wal=self.enable_wal,
            compression=(
                CompressionType.ZLIB
                if self.enable_compression
                else CompressionType.NONE
            ),
            enable_block_cache=self.enable_caching,
            enable_compaction=self.enable_compaction,
            use_mmap_reads=self.use_mmap,
            write_buffer_size=self.write_buffer_size,
            block_size=self.block_size,
            checksum=self.checksum,
            bloom_bits_per_key=self.bloom_bits_per_key,
            cpu_charge=self.cpu_charge,
            **extra,
        )
