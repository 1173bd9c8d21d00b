"""The unified metrics registry.

A :class:`MetricsRegistry` federates every registered stats source —
:class:`~repro.core.counters.PerfCounters`,
:class:`~repro.pfs.client.ClientStats` and the per-server stats
dataclasses, :class:`~repro.lsm.db.DBStats`, the installed telemetry
histograms — behind one namespaced snapshot: ``registry.snapshot()``
returns a flat ``{"namespace.counter": value}`` dict.

Sources are duck-typed — anything with a ``snapshot()`` method, any
dataclass instance, a plain dict, or a zero-argument callable returning
a dict.  Instrumented constructors self-register when a registry is
installed globally (``repro.trace.install``); see DESIGN.md for the
namespace map.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Callable, Union

Source = Union[object, dict, Callable[[], dict]]


def _snap(source: Source) -> dict:
    """Snapshot one source into a plain dict."""
    snapshot = getattr(source, "snapshot", None)
    if callable(snapshot):
        return dict(snapshot())
    if dataclasses.is_dataclass(source) and not isinstance(source, type):
        return dataclasses.asdict(source)
    if isinstance(source, dict):
        return dict(source)
    if callable(source):
        return dict(source())
    raise TypeError(
        f"metrics source must expose snapshot(), be a dataclass, a dict, "
        f"or a callable; got {type(source)}"
    )


def _flatten(namespace: str, data: dict, out: dict) -> None:
    for key, value in data.items():
        name = f"{namespace}.{key}"
        if isinstance(value, dict):
            _flatten(name, value, out)
        else:
            out[name] = value


class MetricsRegistry:
    """Federated, namespaced view over every registered counter object."""

    def __init__(self) -> None:
        self._sources: dict[str, Source] = {}
        self._lock = threading.Lock()

    def register(self, namespace: str, source: Source) -> None:
        """Attach ``source`` under ``namespace`` (replacing any previous)."""
        _snap(source)  # validate the shape up front, not at snapshot time
        with self._lock:
            self._sources[namespace] = source

    def unregister(self, namespace: str) -> None:
        with self._lock:
            self._sources.pop(namespace, None)

    def namespaces(self) -> list[str]:
        with self._lock:
            return sorted(self._sources)

    def snapshot(self, prefix: str = "") -> dict:
        """Flat ``{"namespace.counter": value}`` over matching namespaces."""
        with self._lock:
            sources = [
                (namespace, source)
                for namespace, source in self._sources.items()
                if namespace.startswith(prefix)
            ]
        out: dict = {}
        for namespace, source in sorted(sources):
            _flatten(namespace, _snap(source), out)
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._sources)

    def __contains__(self, namespace: str) -> bool:
        with self._lock:
            return namespace in self._sources
