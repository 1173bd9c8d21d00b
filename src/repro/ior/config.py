"""IOR run configuration (the subset of IOR flags the paper uses)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import InvalidArgumentError
from repro.util.humanize import parse_size

VALID_APIS = ("posix", "hdf5", "adios2", "lsmio", "lsmio-plugin")


@dataclass
class IorConfig:
    """One IOR test definition.

    Mirrors IOR's vocabulary: ``block_size`` (``-b``) is each rank's
    contiguous region per segment, ``transfer_size`` (``-t``) the size of
    each I/O call, ``segment_count`` (``-s``) the number of repetitions of
    the rank-interleaved pattern.  The paper sets transfer = block
    (§A.1.6) and one task per node.  IOR's ``-e`` (fsync on close) and
    ``-C`` (read rank+1's data to defeat locality) are always on, as in
    the paper's runs; APIs with per-rank stores (lsmio, adios2 subfiles)
    always read their own data.
    """

    api: str = "posix"
    num_tasks: int = 4
    block_size: int | str = "1M"
    transfer_size: int | str = "1M"
    segment_count: int = 1
    file_per_process: bool = False      # IOR -F
    collective: bool = False            # IOR -c
    read_back: bool = False             # IOR -r (after -w)
    stripe_count: Optional[int] = None
    stripe_size: Optional[int | str] = None
    repetitions: int = 1                # paper: 10, max reported
    test_file: str = "testFile"
    cb_buffer_size: int | str = "16M"
    #: extra parameters forwarded to the ADIOS2/plugin engines
    engine_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.api = self.api.lower()
        if self.api not in VALID_APIS:
            raise InvalidArgumentError(
                f"api must be one of {VALID_APIS}, got {self.api!r}"
            )
        self.block_size = parse_size(self.block_size)
        self.transfer_size = parse_size(self.transfer_size)
        self.cb_buffer_size = parse_size(self.cb_buffer_size)
        if self.stripe_size is not None:
            self.stripe_size = parse_size(self.stripe_size)
        if self.num_tasks < 1:
            raise InvalidArgumentError("num_tasks must be >= 1")
        if self.segment_count < 1:
            raise InvalidArgumentError("segment_count must be >= 1")
        if self.block_size <= 0 or self.transfer_size <= 0:
            raise InvalidArgumentError("sizes must be positive")
        if self.block_size % self.transfer_size:
            raise InvalidArgumentError(
                "block_size must be a multiple of transfer_size"
            )
        if self.repetitions < 1:
            raise InvalidArgumentError("repetitions must be >= 1")
        if self.collective and self.api in ("adios2", "lsmio", "lsmio-plugin"):
            raise InvalidArgumentError(
                f"IOR collective mode applies to posix/hdf5, not {self.api}"
            )

    @property
    def transfers_per_block(self) -> int:
        return self.block_size // self.transfer_size

    @property
    def bytes_per_task(self) -> int:
        return self.block_size * self.segment_count

    @property
    def total_bytes(self) -> int:
        return self.bytes_per_task * self.num_tasks

    def rank_offsets(self, rank: int) -> list[int]:
        """File offsets of every transfer this rank issues (shared file).

        IOR segmented layout: segment ``s`` holds rank ``r``'s block at
        ``(s * num_tasks + r) * block_size``.
        """
        offsets = []
        for segment in range(self.segment_count):
            base = (segment * self.num_tasks + rank) * self.block_size
            for t in range(self.transfers_per_block):
                offsets.append(base + t * self.transfer_size)
        return offsets
