"""A deterministic discrete-event simulation kernel with two process types.

The substrate that lets the paper's cluster experiments execute the *real*
LSMIO/LSM-engine code under a simulated clock.  Thread-backed processes
(:class:`Process`) run arbitrary Python — including the genuine
storage-engine code path — with **exactly one thread runnable at a time**:
the engine hands control to a process, the process runs until it calls a
blocking primitive (:func:`sleep`, :func:`wait`, resource acquisition),
then control returns to the engine, which advances simulated time to the
next event.  Generator-backed light processes (:class:`LightProcess`,
spawned via :meth:`Engine.spawn_light`) express the same blocking points
as ``yield`` statements and are dispatched inline with no thread handoff —
the backend for fleet-size fan-out.  Scheduling order is a strict
(time, sequence) heap either way, so runs are bit-reproducible.

Python CPU time never advances the clock — only modeled costs (disk
service, network transfer, explicit :func:`sleep`) do, which is what makes
a pure-Python reproduction of an I/O paper meaningful.

Usage::

    from repro import sim

    engine = sim.Engine()

    def worker(tag):
        sim.sleep(1.5)
        return f"{tag} done at {sim.now()}"

    proc = engine.spawn(worker, "w0")
    engine.run()
    assert proc.result == "w0 done at 1.5"
"""

from repro.sim.engine import (
    Engine,
    Event,
    LightProcess,
    Process,
    ProcessKilled,
    blocking_form,
    current_engine,
    current_process,
    now,
    run_blocking,
    sleep,
    wait,
)
from repro.sim.resources import Resource, Store

__all__ = [
    "Engine",
    "Event",
    "LightProcess",
    "Process",
    "ProcessKilled",
    "Resource",
    "Store",
    "blocking_form",
    "current_engine",
    "current_process",
    "now",
    "run_blocking",
    "sleep",
    "wait",
]
