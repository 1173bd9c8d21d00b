"""A flush executor that runs jobs as simulated background processes.

Plugs into :class:`repro.lsm.db.DB` (and therefore LSMIO) when the engine
runs under the discrete-event clock: an *asynchronous* flush becomes a
sim process overlapping the writer's simulated time, exactly like the
paper's single background flush thread (§3.1.2).  ``drain()`` is the
write barrier; it accepts a priority filter so checkpoint barriers wait
only on FOREGROUND+FLUSH work while a trailing compaction keeps running.

Failures follow the one contract of :class:`repro.lsm.executors.Executor`:
a job records its own exception instead of failing its process, so the
job chained behind it still runs, and the next ``drain()`` — of any
classes — re-raises the first failure exactly once.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple

from repro import sim
from repro.io import Priority, io_priority
from repro.lsm.executors import Executor


class SimExecutor(Executor):
    """Run jobs as (serialized) background processes on one engine.

    Jobs are chained so at most one runs at a time — the paper's "single
    thread ... configured for flushing writes".  The chain is global
    across priority classes (one background thread), but the executor
    tracks the last job per class so a filtered drain can wait for "all
    flushes" without waiting for a compaction queued behind them.
    """

    def __init__(self, engine: sim.Engine, name: str = "lsm-flush"):
        self._engine = engine
        self._name = name
        self._last: Optional[sim.Process] = None
        self._last_by_class: Dict[Priority, sim.Process] = {}
        self._count = 0

    def submit(
        self, job: Callable[[], None], priority: Priority = Priority.FLUSH
    ) -> None:
        self._check_open()
        predecessor = self._last
        self._count += 1

        def run() -> None:
            if predecessor is not None and predecessor.alive:
                sim.wait(predecessor.done)
            try:
                with io_priority(priority):
                    job()
            except Exception as exc:  # not BaseException: ProcessKilled unwinds
                self._record(exc)

        # Daemon: the engine never waits on background work; drain() does.
        proc = self._engine.spawn(
            run, name=f"{self._name}-{self._count}", daemon=True
        )
        self._last = proc
        self._last_by_class[priority] = proc

    def _targets(
        self, priorities: Optional[Iterable[Priority]]
    ) -> Tuple[sim.Process, ...]:
        if priorities is None:
            return (self._last,) if self._last is not None else ()
        out: list[sim.Process] = []
        for priority in priorities:
            proc = self._last_by_class.get(priority)
            if proc is not None and proc not in out:
                out.append(proc)
        return tuple(out)

    def drain(self, priorities: Optional[Iterable[Priority]] = None) -> None:
        # Jobs can enqueue follow-up work while we wait (a flush job
        # submits its compaction check), so loop until the drained
        # classes are quiescent, not just until today's tail finished.
        if priorities is not None:
            priorities = tuple(priorities)
        while True:
            targets = self._targets(priorities)
            for proc in targets:
                if proc.alive:
                    sim.wait(proc.done)
            if self._targets(priorities) == targets:
                break
        self._raise_recorded()

    def run_jobs(
        self,
        jobs: Iterable[Callable[[], None]],
        priority: Priority = Priority.COMPACTION,
    ) -> None:
        """Run ``jobs`` as *concurrent* sim processes; wait for them all.

        Unlike :meth:`submit`, these do not join the serialized
        background chain: the caller is typically itself a chained
        background job (a compaction) fanning out its key-range
        partitions and waiting here, so chaining them behind itself
        would deadlock.  Failures: every job runs; the first error by
        job index re-raises after all have finished.
        """
        jobs = list(jobs)
        if len(jobs) == 1:
            with io_priority(priority):
                jobs[0]()
            return
        errors: list[Optional[Exception]] = [None] * len(jobs)
        procs: list[sim.Process] = []
        for index, job in enumerate(jobs):

            def run(index: int = index, job: Callable[[], None] = job) -> None:
                try:
                    with io_priority(priority):
                        job()
                except Exception as exc:  # not BaseException: ProcessKilled unwinds
                    errors[index] = exc

            procs.append(
                self._engine.spawn(
                    run, name=f"{self._name}-sub{index}", daemon=True
                )
            )
        for proc in procs:
            if proc.alive:
                sim.wait(proc.done)
        first = next((exc for exc in errors if exc is not None), None)
        if first is not None:
            raise first
