"""``repro.trace``: checkpoint-timeline tracing and unified metrics.

A :class:`Tracer` records spans on the **simulated** clock (wall clock
optionally alongside) across every layer of the stack — the sim engine's
process scheduling, the PFS client/OST/OSS RPC pipeline, the LSM
engine's group commits/flushes/compactions, the LSMIO manager's K/V
operations, and MPI messaging.  A :class:`MetricsRegistry` federates the
pre-existing counter surfaces (``PerfCounters``, ``ClientStats``,
``DBStats``, per-server stats) behind one namespaced snapshot.

Tracing is **off by default** and cheap when off: each instrumented
interval is one :func:`probe` call, which returns the shared
``NULL_SPAN`` when no tracer or telemetry is installed.  Recording never
advances simulated time, so traced runs are bit-identical to untraced
ones.

Quickstart::

    from repro import trace

    tracer = trace.install()            # + a fresh MetricsRegistry
    ...  # run a benchmark / workload
    payload = tracer.to_payload(metrics=trace.current_metrics().snapshot())
    trace.write_chrome_trace(payload, "out.chrome.json")
    trace.uninstall()

CLI: ``python -m repro.trace summarize|top-spans|export|validate``.
"""

from __future__ import annotations

from typing import Optional

from repro.trace import runtime
from repro.trace.export import (
    load_payload,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_payload,
)
from repro.trace.metrics import MetricsRegistry
from repro.trace.runtime import NULL_SPAN, ambient_clock, probe
from repro.trace.summary import phase_breakdown, summarize, top_spans
from repro.trace.tracer import Span, Tracer

__all__ = [
    "Tracer",
    "Span",
    "MetricsRegistry",
    "NULL_SPAN",
    "install",
    "uninstall",
    "current_tracer",
    "current_metrics",
    "session",
    "probe",
    "ambient_clock",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_payload",
    "load_payload",
    "summarize",
    "top_spans",
    "phase_breakdown",
]


def install(
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Tracer:
    """Install ``tracer`` (default: a fresh one) as the global tracer.

    Also installs ``metrics`` (default: a fresh :class:`MetricsRegistry`)
    so instrumented constructors self-register their counter objects.
    Returns the installed tracer.
    """
    tracer = tracer if tracer is not None else Tracer()
    runtime.TRACER = tracer
    runtime.METRICS = metrics if metrics is not None else MetricsRegistry()
    return tracer


def uninstall() -> None:
    """Disable tracing globally (instrumentation reverts to no-ops)."""
    runtime.TRACER = None
    runtime.METRICS = None


def current_tracer() -> Optional[Tracer]:
    return runtime.TRACER


def current_metrics() -> Optional[MetricsRegistry]:
    return runtime.METRICS


class session:
    """Context manager: install on enter, uninstall on exit.

    ::

        with trace.session() as tracer:
            run_workload()
        print(trace.summarize(tracer.to_payload()))
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self._tracer = tracer
        self._metrics = metrics

    def __enter__(self) -> Tracer:
        return install(self._tracer, self._metrics)

    def __exit__(self, *exc) -> None:
        uninstall()
