"""The simulated node-local burst-buffer device.

Models the three properties the tier's robustness story depends on:

- **bandwidth** — appends and reads charge simulated time through one
  FCFS :class:`~repro.sim.resources.Resource` (a single NVMe pipe), so
  absorbing a checkpoint costs ``nbytes / write_bandwidth`` seconds
  instead of the PFS round trip;
- **capacity** — the tier consults :attr:`used_bytes` before absorbing
  and walks its degradation ladder when the device is full;
- **persistence** — the device object survives a simulated node crash
  (NVMe keeps its bits); :meth:`crash` applies the same seeded
  torn-write cut as :class:`~repro.fault.env.FaultyEnv` — every blob
  keeps its synced prefix plus a ``U[0, unsynced]`` slice of the dirty
  tail.  With ``persistent=False`` the device models a DRAM tier and a
  crash loses everything.

The device knows nothing about segments or the journal — it is a flat
blob namespace with durability bookkeeping.  Policy lives in
:class:`~repro.bb.tier.BurstBufferTier`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import InvalidArgumentError, NotFoundError, StorageIOError
from repro.util.humanize import parse_size


@dataclass
class BurstBufferConfig:
    """Shape of the node-local tier (sizes accept "512M"-style strings)."""

    #: total blob capacity; the tier degrades to write-through beyond it
    capacity: int | str = "1G"
    #: device append bandwidth in bytes/s (0 = don't charge time)
    write_bandwidth: int | str = "8G"
    #: device read bandwidth in bytes/s (0 = don't charge time)
    read_bandwidth: int | str = "12G"
    #: drain copy granularity (one scheduler request per chunk)
    drain_chunk: int | str = "8M"
    #: tier-level retries per segment after the first drain failure
    #: (each attempt still gets the client's own RPC retry budget)
    drain_retries: int = 4
    #: base backoff between drain retries, doubling per attempt (seconds)
    drain_backoff: float = 0.05
    #: cap on DRAIN-class bytes/s at the client (token bucket);
    #: None leaves the scheduler unconfigured, 0 disables throttling
    drain_bandwidth: Optional[float | str] = None
    #: how long an overflowing writer backpressure-waits for the drain
    #: to free space before degrading to write-through (seconds)
    overflow_timeout: float = 1.0
    #: NVMe-like (survives node crash) vs DRAM-like (crash loses all)
    persistent: bool = True
    #: seeds the torn-write cut on crash
    seed: int = 0
    #: an existing device to rebuild the tier over after a simulated
    #: restart; filled in by the manager on first use so the same
    #: options object reopens the same (possibly dirty) device
    device: Optional["BurstBufferDevice"] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.capacity = parse_size(self.capacity)
        self.write_bandwidth = parse_size(self.write_bandwidth)
        self.read_bandwidth = parse_size(self.read_bandwidth)
        self.drain_chunk = parse_size(self.drain_chunk)
        if self.capacity <= 0:
            raise InvalidArgumentError("burst-buffer capacity must be positive")
        if self.write_bandwidth < 0 or self.read_bandwidth < 0:
            raise InvalidArgumentError("bandwidth must be >= 0")
        if self.drain_chunk <= 0:
            raise InvalidArgumentError("drain_chunk must be positive")
        if self.drain_retries < 0:
            raise InvalidArgumentError("drain_retries must be >= 0")
        if self.drain_backoff < 0:
            raise InvalidArgumentError("drain_backoff must be >= 0")
        if self.overflow_timeout < 0:
            raise InvalidArgumentError("overflow_timeout must be >= 0")
        if self.drain_bandwidth is not None:
            self.drain_bandwidth = float(parse_size(self.drain_bandwidth))
            if self.drain_bandwidth < 0:
                raise InvalidArgumentError("drain_bandwidth must be >= 0")


class _Blob:
    """One device-resident file: chunked contents + durability marks."""

    __slots__ = ("chunks", "length", "synced")

    def __init__(self) -> None:
        self.chunks: list[bytes] = []
        self.length = 0
        self.synced = 0  #: bytes guaranteed to survive a crash

    def snapshot(self) -> bytes:
        if len(self.chunks) == 1:
            return self.chunks[0]
        data = b"".join(self.chunks)
        self.chunks = [data]
        return data


class BurstBufferDevice:
    """A flat blob namespace with simulated NVMe timing and crash model."""

    def __init__(self, engine, config: Optional[BurstBufferConfig] = None,
                 name: str = "bbdev"):
        from repro import sim

        self.engine = engine
        self.config = config or BurstBufferConfig()
        self.name = name
        self.up = True
        self.crashes = 0
        self._blobs: dict[str, _Blob] = {}
        self._used = 0
        self._pipe = sim.Resource(engine, capacity=1, name=f"{name}.pipe")
        self._rng = np.random.default_rng(self.config.seed)

    # -- capacity ----------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return max(0, self.config.capacity - self._used)

    # -- timing ------------------------------------------------------------

    def _charge(self, nbytes: int, bandwidth: int) -> None:
        """Occupy the device pipe for ``nbytes`` at ``bandwidth``.

        No-op outside a simulated process (recovery during test setup)
        and when the bandwidth is configured as 0.
        """
        if nbytes <= 0 or not bandwidth:
            return
        from repro import sim
        from repro.errors import SimulationError

        try:
            sim.current_process()
        except SimulationError:
            return
        with self._pipe.request():
            sim.sleep(nbytes / bandwidth)

    def _check_up(self) -> None:
        if not self.up:
            raise StorageIOError(f"burst-buffer device {self.name} is down")

    # -- blob I/O ----------------------------------------------------------

    def create(self, path: str) -> None:
        """Create/truncate a blob (no time charge; an MDS-free namespace)."""
        self._check_up()
        old = self._blobs.get(path)
        if old is not None:
            self._used -= old.length
        self._blobs[path] = _Blob()

    def append(self, path: str, data: bytes) -> None:
        self._check_up()
        blob = self._blobs.get(path)
        if blob is None:
            raise NotFoundError(f"no such burst-buffer blob: {path}")
        chunk = bytes(data)
        self._charge(len(chunk), self.config.write_bandwidth)
        blob.chunks.append(chunk)
        blob.length += len(chunk)
        self._used += len(chunk)

    def sync(self, path: str) -> None:
        """Make every appended byte of ``path`` crash-durable."""
        self._check_up()
        blob = self._lookup(path)
        # an fsync drains the device write pipe for this blob's dirty
        # bytes; appends already charged transfer time, so the sync
        # itself is a cheap flush barrier
        blob.synced = blob.length

    def read(self, path: str, offset: int, nbytes: int) -> bytes:
        self._check_up()
        blob = self._lookup(path)
        data = blob.snapshot()[offset : offset + nbytes]
        self._charge(len(data), self.config.read_bandwidth)
        return data

    def _lookup(self, path: str) -> _Blob:
        blob = self._blobs.get(path)
        if blob is None:
            raise NotFoundError(f"no such burst-buffer blob: {path}")
        return blob

    # -- namespace ---------------------------------------------------------

    def exists(self, path: str) -> bool:
        return path in self._blobs

    def size(self, path: str) -> int:
        return self._lookup(path).length

    def synced_size(self, path: str) -> int:
        return self._lookup(path).synced

    def delete(self, path: str) -> None:
        blob = self._blobs.pop(path, None)
        if blob is None:
            raise NotFoundError(f"no such burst-buffer blob: {path}")
        self._used -= blob.length

    def rename(self, src: str, dst: str) -> None:
        blob = self._blobs.pop(src, None)
        if blob is None:
            raise NotFoundError(f"no such burst-buffer blob: {src}")
        old = self._blobs.get(dst)
        if old is not None:
            self._used -= old.length
        self._blobs[dst] = blob

    def paths(self) -> list[str]:
        return sorted(self._blobs)

    # -- faults ------------------------------------------------------------

    def fail(self) -> None:
        """Device failure: every operation raises until :meth:`recover`."""
        self.up = False

    def recover(self) -> None:
        self.up = True

    def crash(self) -> None:
        """Node death: tear every blob's un-synced tail (seeded cut).

        Mirrors :meth:`repro.fault.env.FaultyEnv.crash`: each dirty blob
        keeps ``synced + U[0, unsynced]`` bytes — some dirty device
        writes made it, the rest are gone.  A non-persistent (DRAM)
        device loses everything.  The device itself stays usable: the
        *node* died, not the drive.
        """
        self.crashes += 1
        if not self.config.persistent:
            self._blobs.clear()
            self._used = 0
            return
        for path in sorted(self._blobs):
            blob = self._blobs[path]
            unsynced = blob.length - blob.synced
            if unsynced <= 0:
                continue
            keep = blob.synced + int(self._rng.integers(0, unsynced + 1))
            data = blob.snapshot()[:keep]
            self._used -= blob.length - len(data)
            blob.chunks = [data]
            blob.length = len(data)
            blob.synced = len(data)
