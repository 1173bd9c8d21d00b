"""Object Storage Targets: FCFS disk service with extent-lock ping-pong.

Two mechanisms live here, and together they generate the paper's Figure 5
cliff:

1. **Head tracking** — the OST remembers where its array's head stopped
   (object id, offset).  Interleaved strided streams from many clients
   break contiguity, so each request pays the disk's positioning penalty;
   a single client streaming one object pays it once.

2. **LDLM-style extent locks** — Lustre grants a client a lock on an
   object (region) it writes; when a *different* client touches the same
   object, the lock must be recalled and re-granted (a client↔OST round
   trip).  Shared-file workloads above the stripe count ping-pong these
   locks on every request; file-per-process workloads never conflict.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import sim
from repro.errors import OstUnavailableError
from repro.pfs.disk import DiskProfile, HeadPosition
from repro.trace import runtime as _trace


@dataclass
class OstStats:
    """Lifetime counters for one OST."""

    bytes_written: int = 0
    bytes_read: int = 0
    requests: int = 0
    sequential_requests: int = 0
    lock_switches: int = 0
    busy_time: float = 0.0
    rejected_requests: int = 0
    failures: int = 0


class Ost:
    """One object storage target."""

    def __init__(
        self,
        engine: sim.Engine,
        index: int,
        disk: DiskProfile,
        lock_switch_time: float = 1.2e-3,
    ):
        self.engine = engine
        self.index = index
        self.disk = disk
        self.lock_switch_time = lock_switch_time
        self._service = sim.Resource(engine, capacity=1, name=f"ost{index}")
        self._head: HeadPosition = None
        self._lock_holder: dict[int, int] = {}  # object id -> last writer
        self.stats = OstStats()
        #: failure-domain state, flipped by a FaultInjector; the healthy
        #: path pays one attribute check per request.
        self.up = True
        self._healthy_disk = disk

    # -- failure domain (driven by repro.fault) ---------------------------

    def fail(self) -> None:
        """Take this OST down: every request is rejected until recovery."""
        self.up = False
        self.stats.failures += 1

    def recover(self) -> None:
        """Bring the OST back.  The array's head position is lost (the
        target rebooted), so the next request repositions."""
        self.up = True
        self._head = None

    def degrade_disk(self, factor: "float | None") -> None:
        """Slow the backing array by ``factor`` (``None`` = restore)."""
        if factor is None:
            self.disk = self._healthy_disk
        else:
            self.disk = self._healthy_disk.scaled(factor)

    def serve_lw(
        self,
        client_id: int,
        object_id: int,
        offset: int,
        nbytes: int,
        is_write: bool,
    ):
        """Execute one RPC against the disk (``yield from`` it).

        Disk service plus extent-lock bookkeeping.  Raises
        :class:`OstUnavailableError` while the target is down — the
        client's retry path decides whether to back off or give up.
        """
        tracer = _trace.TRACER
        if not self.up:
            self.stats.rejected_requests += 1
            if tracer is not None:
                tracer.instant(
                    "pfs", "ost_rejected", ost=self.index, client=client_id,
                )
            raise OstUnavailableError(
                f"ost{self.index} is down", ost_index=self.index
            )
        if tracer is not None:
            tracer.gauge(
                "pfs", f"ost{self.index}.queue", self._service.queue_length,
            )
        with _trace.probe(
            "pfs", "ost_serve", ost=self.index, client=client_id,
            nbytes=nbytes, write=is_write,
        ):
            yield from self._serve_lw(
                client_id, object_id, offset, nbytes, is_write
            )

    serve = sim.blocking_form(serve_lw)

    def _serve_lw(
        self,
        client_id: int,
        object_id: int,
        offset: int,
        nbytes: int,
        is_write: bool,
    ):
        yield from self._service.acquire_lw()
        try:
            start = sim.now()
            service, sequential = self.disk.service_time(
                self._head, object_id, offset, nbytes, is_write
            )
            writer = self._lock_holder.get(object_id)
            if writer is not None and writer != client_id:
                # The previous writer's extent lock must be recalled —
                # for a conflicting write (ping-pong) or for the first
                # read after a foreign write (demotion).
                service += self.lock_switch_time
                self.stats.lock_switches += 1
            if is_write:
                self._lock_holder[object_id] = client_id
            elif writer is not None and writer != client_id:
                # Demoted to a shared read lock: later readers are free.
                self._lock_holder.pop(object_id, None)
            yield service
            self._head = (object_id, offset + nbytes)
            self.stats.requests += 1
            self.stats.sequential_requests += int(sequential)
            self.stats.busy_time += sim.now() - start
            if is_write:
                self.stats.bytes_written += nbytes
            else:
                self.stats.bytes_read += nbytes
        finally:
            self._service.release()

    def drop_object_state(self, object_id: int) -> None:
        """Forget lock/head state for a deleted object."""
        self._lock_holder.pop(object_id, None)
        if self._head is not None and self._head[0] == object_id:
            self._head = None

    @property
    def queue_length(self) -> int:
        return self._service.queue_length
