"""Crash-consistent checkpoint epochs over the LSMIO K/V API.

This is ``examples/checkpoint_restart.py`` promoted into the library and
hardened for a cluster that fails: each checkpoint is an *epoch* written
with a two-phase commit protocol —

1. every state block is put under ``{prefix}/{epoch}/data/…`` together
   with a manifest recording each block's length and CRC-32C, then a
   write barrier makes the data durable;
2. only after that barrier succeeds is the epoch's ``commit`` marker
   written (and barriered) and the epoch appended to the index.

A crash, dead OST, or exhausted retry budget anywhere in the middle
leaves the epoch without a commit marker; restart
(:meth:`Checkpointer.load_latest`) walks the indexed epochs newest-first,
checks the commit marker, verifies every block against its manifest
CRC, and falls back to the previous complete epoch on any corruption —
so the recovered state is always some *complete* checkpoint, never a
torn one.

:class:`DegradedWriteReport` is the structured account of what the fault
path did during a barrier: retries absorbed, timeouts burned, backoff
time spent, and which failure domains (OSTs) were down.  It is attached
to :class:`~repro.errors.DegradedWriteError` when a barrier fails
outright and exposed as ``manager.last_barrier_report`` when it merely
degraded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import (
    CorruptionError,
    DegradedWriteError,
    NotFoundError,
)
from repro.core.serialization import deserialize_value, serialize_value
from repro.util.crc import crc32c


@dataclass
class DegradedWriteReport:
    """What the retry/degradation machinery did during one write barrier."""

    #: False when the barrier could not make all data durable.
    completed: bool = True
    #: transient faults absorbed by the client retry path
    retries: int = 0
    timeouts: int = 0
    #: simulated seconds spent in exponential backoff
    backoff_time: float = 0.0
    #: OST indices that were down when the barrier finished
    failed_osts: tuple[int, ...] = ()
    #: stringified terminal error, when the barrier failed
    error: Optional[str] = None

    @property
    def degraded(self) -> bool:
        """True when the barrier needed the fault path at all."""
        return (
            not self.completed
            or self.retries > 0
            or self.timeouts > 0
            or bool(self.failed_osts)
        )

    def merged(self, other: "DegradedWriteReport") -> "DegradedWriteReport":
        """Combine two phases' reports (e.g. data + commit barriers)."""
        return DegradedWriteReport(
            completed=self.completed and other.completed,
            retries=self.retries + other.retries,
            timeouts=self.timeouts + other.timeouts,
            backoff_time=self.backoff_time + other.backoff_time,
            failed_osts=tuple(
                sorted(set(self.failed_osts) | set(other.failed_osts))
            ),
            error=self.error or other.error,
        )

    def summary(self) -> str:
        status = "completed" if self.completed else "FAILED"
        if not self.degraded:
            return f"barrier {status}: clean (no faults)"
        parts = [
            f"barrier {status} degraded:",
            f"{self.retries} retries,",
            f"{self.timeouts} timeouts,",
            f"{self.backoff_time * 1e3:.1f}ms backoff",
        ]
        if self.failed_osts:
            parts.append(
                "(down OSTs: " + ", ".join(map(str, self.failed_osts)) + ")"
            )
        if self.error:
            parts.append(f"error: {self.error}")
        return " ".join(parts)


@dataclass
class CheckpointInfo:
    """One committed epoch as seen by :meth:`Checkpointer.epochs`."""

    epoch: int
    blocks: dict[str, tuple[int, int]] = field(default_factory=dict)


class Checkpointer:
    """Epoch-based crash-consistent checkpoints on an ``LsmioManager``."""

    def __init__(self, manager, prefix: str = "ckpt"):
        self.manager = manager
        self.prefix = prefix.rstrip("/")
        #: burst-buffer drain report from the last ``save(wait_drain=True)``
        #: (None when no drain barrier ran or no tier is configured)
        self.last_drain_report = None

    # -- key layout --------------------------------------------------------

    def _epoch_key(self, epoch: int, *rest: str) -> str:
        return "/".join((self.prefix, f"{epoch:08d}") + rest)

    @property
    def _index_key(self) -> str:
        return f"{self.prefix}/index"

    # -- write path --------------------------------------------------------

    def save(
        self,
        epoch: int,
        state: dict[str, Any],
        wait_drain: bool = False,
    ) -> DegradedWriteReport:
        """Write one epoch crash-consistently; return the barrier report.

        Raises :class:`~repro.errors.DegradedWriteError` (data phase
        failed — the epoch is simply absent) or propagates a rank crash;
        in both cases no commit marker exists and restarts fall back.

        With a burst-buffer tier the commit barrier makes the epoch
        durable *on the node* (the tier's sealed segments); the PFS copy
        follows asynchronously.  ``wait_drain=True`` additionally blocks
        until the drain backlog is empty — checkpoint-to-PFS semantics —
        and leaves the tier's report in :attr:`last_drain_report`.
        """
        if not state:
            raise NotFoundError("cannot checkpoint an empty state")
        manager = self.manager
        manifest: dict[str, tuple[int, int]] = {}
        for name, value in sorted(state.items()):
            payload = serialize_value(value)
            manifest[name] = (len(payload), crc32c(payload))
            manager.put(self._epoch_key(epoch, "data", name), payload)
        manager.put(
            self._epoch_key(epoch, "manifest"), serialize_value(manifest)
        )
        manager.write_barrier()  # phase 1: data + manifest durable
        data_report = self._last_report()

        manager.put(self._epoch_key(epoch, "commit"), b"1")
        manager.append(self._index_key, f"{epoch} ")
        manager.write_barrier()  # phase 2: the epoch exists
        report = data_report.merged(self._last_report())
        if wait_drain:
            barrier = getattr(manager, "drain_barrier", None)
            if callable(barrier):
                self.last_drain_report = barrier()
        return report

    def _last_report(self) -> DegradedWriteReport:
        report = getattr(self.manager, "last_barrier_report", None)
        return report if report is not None else DegradedWriteReport()

    # -- read path ---------------------------------------------------------

    def epochs(self) -> list[int]:
        """Committed epoch numbers, ascending (from the index)."""
        return [
            epoch for epoch in self._indexed_epochs() if self._is_committed(epoch)
        ]

    def _indexed_epochs(self) -> list[int]:
        """Epoch numbers in the index, ascending, committed or not."""
        try:
            raw = self.manager.get(self._index_key)
        except NotFoundError:
            return []
        return sorted({int(token) for token in raw.decode("ascii").split()})

    def _is_committed(self, epoch: int) -> bool:
        try:
            self.manager.get(self._epoch_key(epoch, "commit"))
        except NotFoundError:
            return False
        return True

    def verify(self, epoch: int) -> CheckpointInfo:
        """Check every block of ``epoch`` against its manifest CRC.

        Raises :class:`~repro.errors.CorruptionError` on any mismatch and
        :class:`~repro.errors.NotFoundError` for a missing/uncommitted
        epoch.
        """
        return self._read_verified(epoch)[0]

    def _read_verified(
        self, epoch: int
    ) -> tuple[CheckpointInfo, dict[str, bytes]]:
        """Every block of ``epoch``, CRC-checked: one manifest read and one
        get per block, shared by :meth:`verify` and :meth:`load`."""
        manifest = self.block_index(epoch)
        info = CheckpointInfo(epoch=epoch)
        payloads: dict[str, bytes] = {}
        for name, (length, crc) in manifest.items():
            payload = self.manager.get(self._epoch_key(epoch, "data", name))
            if len(payload) != length or crc32c(payload) != crc:
                raise CorruptionError(
                    f"epoch {epoch} block {name!r}: CRC/length mismatch"
                )
            info.blocks[name] = (length, crc)
            payloads[name] = payload
        return info, payloads

    def block_index(self, epoch: int) -> dict[str, tuple[int, int]]:
        """Enumerate ``epoch``'s blocks from the manifest: one read, no
        namespace walk.

        Returns ``{name: (length, crc32c)}`` for every block of the
        epoch.  This is the manifest-based alternative to a readdir
        storm: a restore planner learns every block name *and* size from
        a single K/V get instead of a paged listing plus a stat per
        entry (see :mod:`repro.core.enumeration` for the measured
        comparison).  Raises :class:`~repro.errors.NotFoundError` for a
        missing/uncommitted epoch.
        """
        if not self._is_committed(epoch):
            raise NotFoundError(f"epoch {epoch} was never committed")
        return deserialize_value(
            self.manager.get(self._epoch_key(epoch, "manifest"))
        )

    def load(self, epoch: int) -> dict[str, Any]:
        """Load one epoch's state after verifying every block CRC."""
        _, payloads = self._read_verified(epoch)
        return {
            name: deserialize_value(payload)
            for name, payload in payloads.items()
        }

    def load_latest(self) -> tuple[int, dict[str, Any]]:
        """Newest epoch that verifies end-to-end, falling back on damage.

        Walks the index newest-first; an epoch without a commit marker or
        failing CRC verification (torn blocks, lost data) is skipped in
        favour of the previous complete one, so a clean restore reads the
        index and the newest epoch only.  Raises
        :class:`~repro.errors.NotFoundError` when no epoch survives.
        """
        last_error: Optional[Exception] = None
        for epoch in reversed(self._indexed_epochs()):
            try:
                return epoch, self.load(epoch)
            except (CorruptionError, NotFoundError) as exc:
                last_error = exc
                continue
        message = "no complete checkpoint epoch found"
        if last_error is not None:
            message += f" (last failure: {last_error})"
        raise NotFoundError(message)

    # -- convenience -------------------------------------------------------

    def save_or_report(
        self, epoch: int, state: dict[str, Any]
    ) -> DegradedWriteReport:
        """Like :meth:`save`, but a failed barrier returns its report
        (``completed=False``) instead of raising — for callers that treat
        a failed checkpoint as "skip this epoch and keep computing"."""
        try:
            return self.save(epoch, state)
        except DegradedWriteError as exc:
            report = exc.report or DegradedWriteReport(
                completed=False, error=str(exc)
            )
            return report
