"""Locks that are safe to hold across simulated-time operations.

A plain ``threading.Lock`` deadlocks the discrete-event engine: if a sim
process parks (yields to the engine) while holding it, and the engine
then resumes another process that tries to acquire it, that second thread
blocks *outside* engine control and the handoff protocol never completes.

:class:`AdaptiveRLock` solves this for code shared between the real world
and the simulation (the storage engine): inside a sim process it behaves
as a re-entrant lock whose waiters block on sim events (the engine keeps
scheduling); outside it delegates to a genuine ``threading.RLock``.
"""

from __future__ import annotations

import threading
from collections import deque
from repro.errors import SimulationError


def _current_sim_process():
    from repro.sim.engine import _TLS

    return getattr(_TLS, "process", None)


class AdaptiveRLock:
    """Re-entrant lock usable from sim processes and real threads alike.

    A single instance must not be shared between a sim world and real
    threads concurrently — the storage engine lives entirely in one or
    the other for its lifetime, which is the supported usage.
    """

    def __init__(self) -> None:
        self._real = threading.RLock()
        self._sim_owner = None
        self._sim_count = 0
        self._sim_waiters: deque = deque()

    def acquire(self) -> bool:
        proc = _current_sim_process()
        if proc is None:
            self._real.acquire()
            return True
        if self._sim_owner is proc:
            self._sim_count += 1
            return True
        if self._sim_owner is None and not self._sim_waiters:
            self._sim_owner = proc
            self._sim_count = 1
            return True
        from repro import sim

        gate = sim.Event(proc.engine, name="adaptive-rlock")
        self._sim_waiters.append((proc, gate))
        sim.wait(gate)
        # The releaser handed ownership to us before triggering the gate.
        if self._sim_owner is not proc:
            raise SimulationError("lock handoff failed")
        return True

    def release(self) -> None:
        proc = _current_sim_process()
        if proc is None:
            self._real.release()
            return
        if self._sim_owner is not proc:
            raise SimulationError("release of a lock not held by this process")
        self._sim_count -= 1
        if self._sim_count:
            return
        if self._sim_waiters:
            next_proc, gate = self._sim_waiters.popleft()
            self._sim_owner = next_proc
            self._sim_count = 1
            gate.succeed()
        else:
            self._sim_owner = None

    def __enter__(self) -> "AdaptiveRLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()
