"""``repro.telemetry``: always-on histograms, gauge sampling, profiling.

Three instruments layered on the trace runtime, all off by default.
Histogram samples are taken by the same ``repro.trace.runtime.probe``
call that opens a span (``timer``/``observe`` at histogram-only sites);
the engine reads the sampler and profiler once per ``run()``.

- :class:`~repro.telemetry.histogram.LogHistogram` — fixed-boundary
  log-bucketed latency distributions at the choke points of all five
  layers, federated through :class:`~repro.trace.metrics.MetricsRegistry`
  under the ``telemetry.*`` namespace with p50/p90/p99/p99.9 snapshots;
- :class:`~repro.telemetry.sampler.GaugeSampler` — a sim-clock
  time-series of live gauges (queue depths, memtable bytes, compaction
  debt, BB occupancy), driven by the engine dispatch loop so sampled
  runs stay bit-identical to unsampled ones;
- :class:`~repro.telemetry.profiler.EngineProfiler` — wall-clock
  per-callback-site attribution for the discrete-event engine
  (``python -m repro.trace profile``).

Quickstart::

    from repro import telemetry

    tele = telemetry.install(sampler=telemetry.GaugeSampler(0.01))
    ...  # run a workload
    payload = tele.to_payload()          # histograms + series (+ profile)
    telemetry.uninstall()

The invariant mirrors tracing: enabling telemetry never advances the
sim clock and never touches an RNG, so simulated results are
bit-identical either way; only the wall-clock profiler's numbers are
nondeterministic, and they live strictly outside the sim clock.
"""

from __future__ import annotations

from typing import Optional

from repro.trace import runtime as _runtime
from repro.telemetry.histogram import LogHistogram
from repro.telemetry.profiler import EngineProfiler
from repro.telemetry.sampler import GaugeSampler

__all__ = [
    "LogHistogram",
    "GaugeSampler",
    "EngineProfiler",
    "Telemetry",
    "install",
    "uninstall",
    "current",
    "validate_payload",
]

#: namespace under which the installed Telemetry registers its snapshot
METRICS_NAMESPACE = "telemetry"


class Telemetry:
    """The histogram federation point; optionally owns sampler/profiler."""

    def __init__(
        self,
        sampler: Optional[GaugeSampler] = None,
        profiler: Optional[EngineProfiler] = None,
    ):
        self.histograms: dict[str, LogHistogram] = {}
        self.sampler = sampler
        self.profiler = profiler

    # -- recording (the hot-path API) --------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name`` (created on first use)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = LogHistogram()
        hist.record(value)

    def histogram(self, name: str) -> LogHistogram:
        """Get-or-create histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = LogHistogram()
        return hist

    # -- MetricsRegistry source -------------------------------------------

    def snapshot(self) -> dict:
        """Nested ``{hist: {count, sum, min, max, p50..p999}}`` — flattened
        by the registry into ``telemetry.<hist>.<stat>`` keys."""
        return {
            name: self.histograms[name].snapshot()
            for name in sorted(self.histograms)
        }

    # -- export -----------------------------------------------------------

    def to_payload(self, meta: Optional[dict] = None) -> dict:
        """The raw-dump form consumed by ``python -m repro.bench report``."""
        payload = {
            "format": "repro-telemetry",
            "version": 1,
            "meta": dict(meta or {}),
            "histograms": {
                name: self.histograms[name].to_dict()
                for name in sorted(self.histograms)
            },
            "series": self.sampler.to_dict() if self.sampler else {},
        }
        if self.sampler is not None:
            payload["sampler"] = {
                "interval": self.sampler.interval,
                "retention": self.sampler.retention,
                "samples_taken": self.sampler.samples_taken,
            }
        if self.profiler is not None:
            payload["profile"] = self.profiler.snapshot()
        return payload

    def clear(self) -> None:
        self.histograms.clear()
        if self.sampler is not None:
            self.sampler.clear()
        if self.profiler is not None:
            self.profiler.clear()


def validate_payload(doc: dict) -> list[str]:
    """Schema-check a telemetry dump; returns problems (empty = valid)."""
    problems = []
    if doc.get("format") != "repro-telemetry":
        problems.append(f"format is {doc.get('format')!r}, "
                        f"expected 'repro-telemetry'")
    if not isinstance(doc.get("histograms"), dict):
        problems.append("histograms is not a dict")
    else:
        for name, hist in doc["histograms"].items():
            for key in ("count", "sum", "min", "max",
                        "p50", "p90", "p99", "p999", "buckets"):
                if key not in hist:
                    problems.append(f"histogram {name!r} missing {key!r}")
            buckets = hist.get("buckets")
            if isinstance(buckets, dict):
                bucketed = sum(buckets.values()) + hist.get("zeros", 0)
                if bucketed != hist.get("count"):
                    problems.append(
                        f"histogram {name!r} bucket counts {bucketed} != "
                        f"count {hist.get('count')}"
                    )
    if not isinstance(doc.get("series"), dict):
        problems.append("series is not a dict")
    else:
        for name, col in doc["series"].items():
            ts = col.get("ts")
            values = col.get("value")
            if not isinstance(ts, list) or not isinstance(values, list):
                problems.append(f"series {name!r} is not columnar")
                continue
            if len(ts) != len(values):
                problems.append(
                    f"series {name!r} ts/value length mismatch "
                    f"({len(ts)} vs {len(values)})"
                )
            if any(b < a for a, b in zip(ts, ts[1:])):
                problems.append(f"series {name!r} timestamps not sorted")
    return problems


# -- global install (mirrors repro.trace) ----------------------------------


def install(
    telemetry: Optional[Telemetry] = None,
    sampler: Optional[GaugeSampler] = None,
    profiler: Optional[EngineProfiler] = None,
) -> Telemetry:
    """Install ``telemetry`` (default: a fresh one) globally.

    ``sampler``/``profiler`` attach to the telemetry object and are
    published to the runtime globals the engine dispatch loop reads.
    If a :class:`MetricsRegistry` is installed, the telemetry snapshot
    self-registers under the ``telemetry`` namespace.
    """
    telemetry = telemetry if telemetry is not None else Telemetry()
    if sampler is not None:
        telemetry.sampler = sampler
    if profiler is not None:
        telemetry.profiler = profiler
    _runtime.TELEMETRY = telemetry
    _runtime.SAMPLER = telemetry.sampler
    _runtime.PROFILER = telemetry.profiler
    metrics = _runtime.METRICS
    if metrics is not None:
        metrics.register(METRICS_NAMESPACE, telemetry)
    return telemetry


def uninstall() -> None:
    """Disable telemetry globally (instrumentation reverts to no-ops)."""
    metrics = _runtime.METRICS
    if metrics is not None and _runtime.TELEMETRY is not None:
        metrics.unregister(METRICS_NAMESPACE)
    _runtime.TELEMETRY = None
    _runtime.SAMPLER = None
    _runtime.PROFILER = None


def current() -> Optional[Telemetry]:
    return _runtime.TELEMETRY

