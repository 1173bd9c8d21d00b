"""Flush/compaction executors: where background work runs.

The paper configures "a single thread ... for flushing writes" (§3.1.2).
The engine keeps that policy pluggable:

- :class:`SyncExecutor` runs jobs inline (deterministic; the default);
- :class:`ThreadExecutor` runs them on one daemon worker thread — real
  asynchrony for the standalone library's async write mode;
- the simulation substrate provides a ``SimExecutor`` that runs jobs as
  discrete-event processes so flushes overlap compute in *simulated* time.

All executors expose the same three methods.  Jobs carry an I/O service
class (:class:`repro.io.Priority`): the executor runs each job inside the
matching :func:`repro.io.io_priority` context so every client RPC the job
issues is classified, and ``drain(priorities=...)`` can act as a
*selective* barrier — ``write_barrier`` waits only on FOREGROUND+FLUSH
work, never on trailing compaction.

The two background executors share one error contract, held by
:class:`Executor` and pinned by ``tests/lsm/test_executors.py``;
:class:`SyncExecutor` instead raises a job's error at ``submit``.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Iterable, Optional

from repro.io import Priority, io_priority


class Executor:
    """Interface: submit classified jobs, drain to a barrier, close.

    Error contract of the background executors:

    - a failed job does not stop the jobs queued behind it (``DB``'s own
      flushes stand down after a failed one, see ``DB._flush_job``); the
      executor records the **first** failure and drops later ones;
    - ``drain()`` re-raises the recorded failure exactly once, whatever
      classes it waited on — a failed background job surfaces at the
      next barrier, never lost to filtering;
    - ``submit`` after ``close()`` raises :class:`RuntimeError`;
    - ``close()`` drains once; any further call is a no-op even if the
      first raised.
    """

    _error: Optional[BaseException] = None
    _closed = False

    def submit(
        self, job: Callable[[], None], priority: Priority = Priority.FLUSH
    ) -> None:
        raise NotImplementedError

    def drain(self, priorities: Optional[Iterable[Priority]] = None) -> None:
        """Barrier: block until submitted jobs finish, re-raise failures.

        ``priorities=None`` waits for everything; a set waits only for
        jobs submitted under those classes.
        """
        raise NotImplementedError

    def close(self) -> None:
        if self._closed:
            return
        # Flag first: close() stays a no-op on re-entry even when the
        # drain below raises a recorded job error.
        self._closed = True
        try:
            self.drain()
        finally:
            self._stop()

    def _stop(self) -> None:
        """Release the executor's resources after its final drain."""

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("executor is closed")

    def _record(self, exc: BaseException) -> None:
        """Keep the first job failure for the next drain; drop later ones."""
        if self._error is None:
            self._error = exc

    def _raise_recorded(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def run_jobs(
        self,
        jobs: Iterable[Callable[[], None]],
        priority: Priority = Priority.COMPACTION,
    ) -> None:
        """Run ``jobs`` to completion before returning (subcompaction fan-out).

        Unlike :meth:`submit`, this is a *synchronous* fan-out used from
        inside an already-running background job (a compaction running
        its key-range partitions).  The base implementation is
        sequential — correct on any executor because partition
        boundaries, not concurrency, define the outputs.  Parallel
        executors override this to overlap the jobs in simulated time.
        Contract either way: when this returns, every job has completed,
        or the first failure (by job index) has been raised.
        """
        for job in jobs:
            with io_priority(priority):
                job()


class SyncExecutor(Executor):
    """Runs each job immediately on the calling thread."""

    def submit(
        self, job: Callable[[], None], priority: Priority = Priority.FLUSH
    ) -> None:
        with io_priority(priority):
            job()

    def drain(self, priorities: Optional[Iterable[Priority]] = None) -> None:
        pass


class ThreadExecutor(Executor):
    """A single background worker thread with barrier-style drain."""

    def __init__(self, name: str = "lsm-flush"):
        self._queue: "queue.Queue[Optional[tuple]]" = queue.Queue()
        self._pending = {p: 0 for p in Priority}
        self._cond = threading.Condition()
        self._worker = threading.Thread(target=self._run, name=name, daemon=True)
        self._worker.start()

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            job, priority = item
            try:
                with io_priority(priority):
                    job()
            except BaseException as exc:  # a dead worker would hang drain()
                with self._cond:
                    self._record(exc)
            finally:
                with self._cond:
                    self._pending[priority] -= 1
                    self._cond.notify_all()

    def submit(
        self, job: Callable[[], None], priority: Priority = Priority.FLUSH
    ) -> None:
        self._check_open()
        with self._cond:
            self._pending[priority] += 1
        self._queue.put((job, priority))

    def drain(self, priorities: Optional[Iterable[Priority]] = None) -> None:
        waited = (
            tuple(Priority) if priorities is None else tuple(priorities)
        )
        with self._cond:
            while any(self._pending[p] > 0 for p in waited):
                self._cond.wait()
            self._raise_recorded()

    def _stop(self) -> None:
        self._queue.put(None)
        self._worker.join()
