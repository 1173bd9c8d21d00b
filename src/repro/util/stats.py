"""Summary statistics for repeated benchmark runs.

The paper runs each configuration 10 times and reports the *maximum*
bandwidth (§4).  :class:`SummaryStats` keeps every sample so harnesses can
report max (the paper's protocol) alongside mean/min/stddev for honesty.

:func:`quantile` is **the** repo-wide sample-quantile definition —
sorted-sample linear interpolation (numpy's default / type-7).  The
campaigns, their tests and :class:`SummaryStats` all route through it, so
"p99" means one number everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import InvalidArgumentError

#: the quantiles every latency table reports, in key order
STANDARD_QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p90", 0.90),
    ("p99", 0.99),
    ("p999", 0.999),
)


def quantile(samples: Iterable[float], q: float) -> float:
    """Linear-interpolated sample quantile, ``q`` in [0, 1].

    Accepts any iterable (sorts a copy).  Raises
    :class:`InvalidArgumentError` on an empty sequence or out-of-range
    ``q`` — callers that want a 0.0 fallback must opt in explicitly.
    """
    if not 0.0 <= q <= 1.0:
        raise InvalidArgumentError(f"quantile out of range: {q}")
    ordered = sorted(samples)
    if not ordered:
        raise InvalidArgumentError("no samples recorded")
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return ordered[lo]
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def percentiles(
    samples: Sequence[float],
    quantiles: tuple[tuple[str, float], ...] = STANDARD_QUANTILES,
) -> dict:
    """``{name: quantile, ..., "max": ...}`` over one sorted pass."""
    ordered = sorted(samples)
    if not ordered:
        return {name: 0.0 for name, _ in quantiles} | {"max": 0.0}
    out = {name: quantile(ordered, q) for name, q in quantiles}
    out["max"] = ordered[-1]
    return out


@dataclass
class SummaryStats:
    """Accumulates float samples and derives summary statistics."""

    samples: list[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        """Record one sample."""
        self.samples.append(float(value))

    def __len__(self) -> int:
        return len(self.samples)

    def _require_samples(self) -> None:
        if not self.samples:
            raise InvalidArgumentError("no samples recorded")

    @property
    def max(self) -> float:
        """Largest sample (the paper's reported statistic)."""
        self._require_samples()
        return max(self.samples)

    @property
    def min(self) -> float:
        self._require_samples()
        return min(self.samples)

    @property
    def mean(self) -> float:
        self._require_samples()
        return sum(self.samples) / len(self.samples)

    @property
    def stddev(self) -> float:
        """Sample standard deviation (0.0 for a single sample)."""
        self._require_samples()
        n = len(self.samples)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((x - mu) ** 2 for x in self.samples) / (n - 1))

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile, ``q`` in [0, 100]."""
        self._require_samples()
        if not 0.0 <= q <= 100.0:
            raise InvalidArgumentError(f"percentile out of range: {q}")
        return quantile(self.samples, q / 100.0)
