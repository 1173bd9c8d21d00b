"""Global instrumentation hooks — safe to import from the hottest layers.

This module must not import anything else from ``repro``: the sim
engine, PFS client, LSM engine, MPI communicator, and LSMIO manager all
import it at module scope.  Instrumented code records an interval with
one call, :func:`probe` (or :func:`timer` when the interval only feeds a
histogram), and a point value with :func:`observe`; these read the
installed :data:`TRACER` and :data:`TELEMETRY` and return the shared
:data:`NULL_SPAN` when neither is on, so a disabled site costs one call
(plus the no-op enter/exit of a ``with``) and allocates nothing beyond
its arguments.  Gauges and instants are
point events with no interval to close; their sites read :data:`TRACER`
directly.

The simulated-clock hookup is inverted to keep the import graph acyclic:
:mod:`repro.sim.engine` registers its thread-local state here
(:data:`_SIM_TLS`) when it is imported, so :func:`ambient_clock` and
:func:`current_track` can resolve simulated time and the running process
without this package ever importing the simulator.
"""

from __future__ import annotations

import threading
import time

#: the installed :class:`~repro.trace.tracer.Tracer`, or None (disabled)
TRACER = None

#: the installed :class:`~repro.trace.metrics.MetricsRegistry`, or None
METRICS = None

#: the installed :class:`~repro.telemetry.Telemetry` (always-on
#: histograms + gauge sources), or None; read by :func:`probe`,
#: :func:`timer` and :func:`observe`
TELEMETRY = None

#: the installed :class:`~repro.telemetry.sampler.GaugeSampler`, or None;
#: read by the sim engine's dispatch loop (hoisted once per ``run()``)
SAMPLER = None

#: the installed :class:`~repro.telemetry.profiler.EngineProfiler`, or
#: None; read by the sim engine's dispatch loop (hoisted once per
#: ``run()``), so the disabled path adds zero per-event work
PROFILER = None

#: thread-local of the discrete-event engine (set by repro.sim.engine);
#: its ``engine`` and ``process`` read None outside a simulation
_SIM_TLS = None


def ambient_clock() -> float:
    """Simulated time inside a sim process, else monotonic wall seconds.

    The one clock every span, histogram sample and ``PerfCounters``
    interval is measured on.
    """
    tls = _SIM_TLS
    engine = tls.engine if tls is not None else None
    if engine is None:
        return time.monotonic()
    return engine._now


def current_track() -> str:
    """Name of the executing context: sim process name or thread name."""
    tls = _SIM_TLS
    proc = tls.process if tls is not None else None
    if proc is not None:
        return proc.name
    return threading.current_thread().name


class _NullSpan:
    """Shared no-op span: the disabled path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **args) -> "_NullSpan":
        return self

    def finish(self) -> None:
        pass


#: the singleton returned wherever there is nothing to record
NULL_SPAN = _NullSpan()


class _Probe:
    """An open interval that feeds histogram ``hist`` when it finishes.

    ``span`` is the tracer's span or :data:`NULL_SPAN`; with a real span
    the sample is exactly its duration.
    """

    __slots__ = ("span", "tele", "hist", "start")

    def __init__(self, span, tele, hist: str):
        self.span = span
        self.tele = tele
        self.hist = hist
        self.start = ambient_clock() if span is NULL_SPAN else span.start

    def __enter__(self) -> "_Probe":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.finish()
        return False

    def set(self, **args) -> "_Probe":
        self.span.set(**args)
        return self

    def finish(self) -> None:
        span = self.span
        span.finish()
        end = ambient_clock() if span is NULL_SPAN else span.end
        self.tele.observe(self.hist, end - self.start)


def probe(category: str, name: str, hist: str | None = None, **args):
    """Open one instrumented interval on the caller's track.

    Records a ``category``/``name`` span with ``args`` if a tracer is
    installed, and a sample of histogram ``hist`` if telemetry is
    installed and ``hist`` is given, both on :func:`ambient_clock`.
    Returns :data:`NULL_SPAN` when there is nothing to record, else an
    object with ``set(**args)``, ``finish()`` and the context-manager
    protocol; ``finish`` (or leaving the ``with`` block, exception or
    not) closes the span and takes the sample.
    """
    tracer = TRACER
    tele = TELEMETRY if hist is not None else None
    if tele is None:
        if tracer is None:
            return NULL_SPAN
        return tracer.span(category, name, **args)
    if tracer is None:
        return _Probe(NULL_SPAN, tele, hist)
    return _Probe(tracer.span(category, name, **args), tele, hist)


def timer(hist: str):
    """:func:`probe` for an interval that has a histogram but no span."""
    tele = TELEMETRY
    if tele is None:
        return NULL_SPAN
    return _Probe(NULL_SPAN, tele, hist)


def observe(hist: str, value: float) -> None:
    """Record ``value`` into histogram ``hist`` if telemetry is installed."""
    tele = TELEMETRY
    if tele is not None:
        tele.observe(hist, value)
