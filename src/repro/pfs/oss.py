"""Object Storage Servers: the shared pipes in front of the OSTs.

Viking runs 45 OSTs behind only **2 OSSs** (Table 4), so however many
disks are streaming, aggregate bandwidth is capped by two server network
pipes.  This is the ceiling LSMIO's scaling curve flattens against at
high node counts (DESIGN.md §5).

Each OSS is modeled as a single FCFS pipe with a fixed bandwidth; a
request occupies the pipe for ``nbytes / bandwidth`` seconds plus a fixed
RPC service overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import sim
from repro.errors import RpcTimeoutError
from repro.pfs.domain import FailureDomain
from repro.trace import runtime as _trace
from repro.util.humanize import parse_size


@dataclass
class OssStats:
    bytes_moved: int = 0
    requests: int = 0
    busy_time: float = 0.0
    rejected_requests: int = 0
    failures: int = 0


class Oss(FailureDomain):
    """One object storage server fronting a group of OSTs."""

    def __init__(
        self,
        engine: sim.Engine,
        index: int,
        bandwidth: float | str = "2.6G",
        rpc_overhead: float = 3e-5,
    ):
        self.engine = engine
        self.index = index
        self.bandwidth = float(parse_size(bandwidth))
        self.rpc_overhead = rpc_overhead
        self._pipe = sim.Resource(engine, capacity=1, name=f"oss{index}")
        self.stats = OssStats()
        #: a down OSS silently eats RPCs to the OSTs it fronts: the client
        #: checks this flag before transferring and burns its timeout there
        #: (``LustreClient._rpc_attempt_lw``)
        self.up = True

    def transfer_lw(self, nbytes: int):
        """Move ``nbytes`` through this server's pipe (``yield from`` it)."""
        if not self.up:
            # Unreached in practice (clients check before transferring),
            # but guard the pipe for direct callers.
            self.stats.rejected_requests += 1
            raise RpcTimeoutError(f"oss{self.index} unreachable")
        tracer = _trace.TRACER
        if tracer is not None:
            tracer.gauge(
                "pfs", f"oss{self.index}.queue", self._pipe.queue_length,
            )
        with _trace.probe(
            "pfs", "oss_transfer", oss=self.index, nbytes=nbytes,
        ):
            yield from self._pipe.acquire_lw()
            try:
                start = sim.now()
                yield self.rpc_overhead + nbytes / self.bandwidth
                self.stats.bytes_moved += nbytes
                self.stats.requests += 1
                self.stats.busy_time += sim.now() - start
            finally:
                self._pipe.release()

    transfer = sim.blocking_form(transfer_lw)

    @property
    def queue_length(self) -> int:
        return self._pipe.queue_length
