"""The I/O request object and its priority classes.

A request is one client-side submission (a ``write``/``writev`` call's
coalesced RPC batch, one ``read``, one ``fsync``, one MDS op) — the unit
the admission policies reorder.  RPC-level pipelining below a request
(``max_rpcs_in_flight``, the NIC resource) is untouched by scheduling.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional


class Priority(enum.IntEnum):
    """Service classes, highest priority first (lower value wins).

    ``METADATA`` sits between ``FOREGROUND`` and ``FLUSH``: namespace ops
    are tiny and the caller always blocks on them, so starving them
    behind a 32 MB flush would serialize ``open``/``close`` storms for
    no modeling benefit.  ``DRAIN`` is burst-buffer write-back: it must
    yield to the live checkpoint path but outranks ``COMPACTION``
    because an undrained segment is durability debt (the PFS copy does
    not exist yet) while compaction debt is merely folded work.
    ``COMPACTION`` is last — the paper's (and Luo & Carey's) whole point
    is that compaction I/O must yield to the checkpoint write path.
    """

    FOREGROUND = 0   #: application/iolib reads+writes, fsync barriers
    METADATA = 1     #: MDS namespace traffic (create/open/close/stat)
    FLUSH = 2        #: memtable → SSTable background flushes
    DRAIN = 3        #: burst-buffer → OST write-back (rate-limitable)
    COMPACTION = 4   #: background merge I/O (rate-limitable)


#: The classes a checkpoint ``write_barrier`` must wait on: the caller's
#: own writes plus the flushes that persist them.  Compaction is folded
#: work, not durability — barriers do not wait for it.
BARRIER_CLASSES = frozenset({Priority.FOREGROUND, Priority.FLUSH})

#: Classes a barrier deliberately does NOT wait on.  ``METADATA`` is
#: excluded because namespace ops are synchronous — the caller blocks on
#: each one, so none can be outstanding when it reaches a barrier.
#: Burst-buffer ``DRAIN`` is excluded because the barrier's durability
#: point is the fast tier (the drain journal owns PFS durability);
#: ``COMPACTION`` is folded work, not durability.
NON_BARRIER_CLASSES = frozenset(
    {Priority.METADATA, Priority.DRAIN, Priority.COMPACTION}
)


def validate_barrier_partition(members=None) -> None:
    """Every priority class must be explicitly barrier or non-barrier.

    A class in *neither* set is a latent data-loss bug: its jobs would be
    silently excluded from every selective ``drain(priorities=...)``, so
    a write barrier could report durability while that class still has
    work in flight.  Called at import time so adding an enum member
    without classifying it fails fast; tests call it with a synthetic
    ``members`` sequence to pin the failure mode.
    """
    covered = BARRIER_CLASSES | NON_BARRIER_CLASSES
    uncovered = [m for m in (members or Priority) if m not in covered]
    if uncovered:
        names = ", ".join(getattr(m, "name", str(m)) for m in uncovered)
        raise AssertionError(
            f"Priority class(es) {names} are in neither BARRIER_CLASSES "
            "nor NON_BARRIER_CLASSES; selective drains would silently "
            "skip them (data-loss hazard) — classify them explicitly"
        )
    overlap = BARRIER_CLASSES & NON_BARRIER_CLASSES
    if overlap:
        raise AssertionError(
            f"Priority class(es) {sorted(p.name for p in overlap)} are in "
            "both BARRIER_CLASSES and NON_BARRIER_CLASSES"
        )


validate_barrier_partition()

_SEQ = itertools.count()


@dataclass
class IoRequest:
    """One schedulable unit of client I/O.

    ``nbytes`` is the payload the policy charges (DRR deficits, the
    compaction rate limiter); zero-byte requests (fsync, metadata) are
    charged as control traffic.  ``ost`` is the first OST the request
    touches — the admission-queue key; multi-OST batches queue whole
    under their first target so their RPC pipeline stays intact.
    """

    kind: str                           #: "write" | "read" | "fsync" | "meta"
    priority: Priority = Priority.FOREGROUND
    nbytes: int = 0
    ost: Optional[int] = None           #: admission-queue key (first OST)
    seq: int = field(default_factory=lambda: next(_SEQ))
    submit_time: float = 0.0            #: stamped by the scheduler
    _gate: Any = field(default=None, repr=False)  #: park/grant event
