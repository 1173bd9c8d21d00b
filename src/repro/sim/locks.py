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
from repro.sim.engine import _TLS, Event, wait


def _current_sim_process():
    return _TLS.process


class AdaptiveRLock:
    """Re-entrant lock usable from sim processes and real threads alike.

    A single instance must not be shared between a sim world and real
    threads concurrently — the storage engine lives entirely in one or
    the other for its lifetime, which is the supported usage.  As with
    ``threading.RLock``, ``with lock:`` is ``acquire`` then ``release``:
    one call each way, since every point read crosses two of these.
    """

    def __init__(self) -> None:
        self._real = threading.RLock()
        self._sim_owner = None
        self._sim_count = 0
        self._sim_waiters: deque = deque()

    def acquire(self) -> bool:
        proc = _TLS.process
        if proc is None:
            return self._real.acquire()
        if self._sim_owner is proc:
            self._sim_count += 1
            return True
        if self._sim_owner is None and not self._sim_waiters:
            self._sim_owner = proc
            self._sim_count = 1
            return True
        gate = Event(proc.engine, name="adaptive-rlock")
        self._sim_waiters.append((proc, gate))
        wait(gate)
        # The releaser handed ownership to us before triggering the gate.
        if self._sim_owner is not proc:
            raise SimulationError("lock handoff failed")
        return True

    def release(self, *_exc_info) -> None:
        proc = _TLS.process
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

    __enter__ = acquire
    __exit__ = release  # ignores the exception triple
