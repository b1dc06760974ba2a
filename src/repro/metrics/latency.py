"""Latency distributions: deterministic histograms with percentile reporting.

Aggregate speedup hides what contended paths do to individual operations, so
the workload subsystem reports *distributions* — p50/p95/p99 — rather than
means.  The collector is a geometric-bucket histogram: samples are counted in
buckets whose bounds grow by a fixed ratio, which keeps percentile queries
deterministic (no reservoir sampling, no randomness) and memory bounded no
matter how many operations a run issues.  Exact count, mean, min and max are
tracked streaming alongside the buckets.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Smallest latency resolved exactly (seconds); everything below lands in
#: bucket 0.  One tenth of a microsecond is far below any simulated cost.
_MIN_LATENCY = 1e-7

#: Ratio between consecutive bucket upper bounds.  1.04 keeps the relative
#: quantile error under ~4% while needing only a few hundred buckets to span
#: from 0.1 us to minutes.
_GROWTH = 1.04

_LOG_GROWTH = math.log(_GROWTH)

#: The percentiles every summary reports.
REPORT_PERCENTILES = (0.50, 0.95, 0.99)


def _bucket_index(value: float) -> int:
    if value <= _MIN_LATENCY:
        return 0
    return 1 + int(math.log(value / _MIN_LATENCY) / _LOG_GROWTH)


def _bucket_upper_bound(index: int) -> float:
    if index == 0:
        return _MIN_LATENCY
    return _MIN_LATENCY * (_GROWTH ** index)


class LatencyHistogram:
    """A geometric-bucket latency histogram with deterministic percentiles."""

    __slots__ = ("count", "total", "min", "max", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._buckets: Dict[int, int] = {}

    # -- recording -------------------------------------------------------- #

    def record(self, seconds: float) -> None:
        """Add one latency sample (negative samples clamp to zero)."""
        value = max(0.0, seconds)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = _bucket_index(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's samples into this one."""
        self.count += other.count
        self.total += other.total
        for bound in (other.min, other.max):
            if bound is None:
                continue
            if self.min is None or bound < self.min:
                self.min = bound
            if self.max is None or bound > self.max:
                self.max = bound
        for index, n in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + n

    # -- queries ----------------------------------------------------------- #

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """The latency at quantile ``fraction`` (e.g. 0.99 for p99).

        Returns the upper bound of the bucket containing the quantile,
        clamped to the exact observed maximum.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"percentile fraction must be in (0, 1], got {fraction}")
        if self.count == 0:
            return 0.0
        target = math.ceil(fraction * self.count)
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= target:
                return min(_bucket_upper_bound(index), self.max or 0.0)
        return self.max or 0.0  # pragma: no cover - unreachable

    def summary(self, percentiles: Sequence[float] = REPORT_PERCENTILES) -> Dict[str, float]:
        """A compact dict: count, mean, min/max and the requested percentiles."""
        out: Dict[str, float] = {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min or 0.0,
            "max": self.max or 0.0,
        }
        for fraction in percentiles:
            out[f"p{int(round(fraction * 100))}"] = self.percentile(fraction)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<LatencyHistogram n={self.count} mean={self.mean * 1000:.3f}ms "
                f"p99={self.percentile(0.99) * 1000:.3f}ms>")


class LatencyRecorder:
    """Named latency histograms (one per operation class: read, write, ...).

    The recorder is what gets attached to a runtime system's invocation path
    (see :meth:`repro.rts.base.RuntimeSystem.attach_latency_recorder`) and
    what the workload runner uses for client-observed request latencies.
    """

    def __init__(self) -> None:
        self._histograms: Dict[str, LatencyHistogram] = {}

    def record(self, kind: str, seconds: float) -> None:
        histogram = self._histograms.get(kind)
        if histogram is None:
            histogram = LatencyHistogram()
            self._histograms[kind] = histogram
        histogram.record(seconds)

    def histogram(self, kind: str) -> LatencyHistogram:
        """The histogram for ``kind`` (an empty one if never recorded)."""
        return self._histograms.get(kind, LatencyHistogram())

    def kinds(self) -> List[str]:
        return sorted(self._histograms)

    def merged(self, kinds: Optional[Iterable[str]] = None) -> LatencyHistogram:
        """One histogram folding together the given kinds (default: all)."""
        merged = LatencyHistogram()
        for kind in (self.kinds() if kinds is None else kinds):
            existing = self._histograms.get(kind)
            if existing is not None:
                merged.merge(existing)
        return merged

    def summaries(self) -> Dict[str, Dict[str, float]]:
        """Per-kind summaries plus an ``overall`` entry merging everything."""
        out = {kind: hist.summary() for kind, hist in sorted(self._histograms.items())}
        out["overall"] = self.merged().summary()
        return out


def rounded_summary(summary: Dict[str, float], digits: int = 9) -> Dict[str, float]:
    """A fingerprint-stable copy of a histogram summary.

    Counts become ints; every other field is rounded to ``digits`` decimal
    places, matching the rounding :meth:`WorkloadReport.fingerprint` applies
    to its own latency columns so summaries embed into canonical-JSON
    reports without float-repr jitter.
    """
    out: Dict[str, float] = {}
    for key, value in summary.items():
        out[key] = int(value) if key == "count" else round(value, digits)
    return out


def format_latency_row(summary: Dict[str, float]) -> Tuple[str, str, str, str]:
    """Render (p50, p95, p99, mean) of a summary in milliseconds for tables."""
    return (f"{summary['p50'] * 1000:.3f}",
            f"{summary['p95'] * 1000:.3f}",
            f"{summary['p99'] * 1000:.3f}",
            f"{summary['mean'] * 1000:.3f}")
