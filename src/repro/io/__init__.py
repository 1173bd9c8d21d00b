"""Unified prioritized I/O scheduler: one request path to the PFS.

Every byte the reproduction moves — foreground iolib writes, memtable
flushes, compactions, metadata traffic — flows through one
:class:`~repro.io.scheduler.IoScheduler` per client as an explicit
:class:`~repro.io.request.IoRequest` with a priority class.  The
scheduler is the seam where admission policy (FIFO / strict-priority /
deficit-weighted round-robin) and compaction rate limiting plug in —
the Luo & Carey "scheduling" knob for bounding write stalls.

Determinism contract: the default FIFO policy is a pure inline
pass-through — zero added sim events, bit-identical to the unscheduled
write path.  Priority policies only reorder *admission* (whole
requests); the per-RPC NIC/OSS/OST pipeline underneath is unchanged.
"""

from repro.io.context import current_priority, io_priority
from repro.io.request import (
    BARRIER_CLASSES,
    NON_BARRIER_CLASSES,
    IoRequest,
    Priority,
    validate_barrier_partition,
)
from repro.io.scheduler import (
    POLICIES,
    DeficitRoundRobinPolicy,
    FifoPolicy,
    IoScheduler,
    RateLimiter,
    SchedulerStats,
    StrictPriorityPolicy,
    make_policy,
)

__all__ = [
    "BARRIER_CLASSES",
    "NON_BARRIER_CLASSES",
    "DeficitRoundRobinPolicy",
    "FifoPolicy",
    "IoRequest",
    "IoScheduler",
    "POLICIES",
    "Priority",
    "RateLimiter",
    "SchedulerStats",
    "StrictPriorityPolicy",
    "current_priority",
    "io_priority",
    "make_policy",
    "validate_barrier_partition",
]
