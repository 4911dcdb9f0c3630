"""Fixed-bucket latency histograms with nearest-rank percentiles.

A histogram with a fixed 1-2-5 bucket ladder is all the simulator needs
for latency distributions: recording is O(number of buckets) in the worst
case (a short linear scan — the ladder has ~25 rungs), memory is constant,
and p50/p95/p99 read out directly. Exact values are deliberately not
retained; the buckets *are* the export format.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence


def nearest_rank(p: float, n: int) -> int:
    """The 1-based nearest-rank index of the p-th percentile of ``n``.

    ``max(1, ceil(p/100 * n))`` — the *single* definition shared by
    :meth:`Histogram.percentile` and
    :meth:`repro.sim.metrics.SimResult.txn_latency_percentile`, so a
    percentile read from a bucketed histogram and one computed from the
    raw sample can never disagree about which observation they mean.
    """
    if not 0 < p <= 100:
        raise ValueError(f"percentile out of range: {p}")
    return max(1, math.ceil(p / 100.0 * n))


def _default_bounds() -> List[float]:
    """1-2-5 ladder from 1 ns to 10 ms (covers every simulated latency)."""
    bounds: List[float] = []
    mag = 1.0
    while mag <= 1e7:
        for mult in (1.0, 2.0, 5.0):
            bounds.append(mag * mult)
        mag *= 10.0
    return bounds


class Histogram:
    """Counts of values falling into fixed, ascending upper-bound buckets.

    ``bounds[i]`` is the inclusive upper edge of bucket ``i``; values above
    the last bound land in an overflow bucket.
    """

    def __init__(self, bounds: Sequence[float] = ()):
        self.bounds: List[float] = list(bounds) if bounds else _default_bounds()
        if any(b <= a for a, b in zip(self.bounds, self.bounds[1:])):
            raise ValueError("histogram bounds must be strictly ascending")
        #: counts[i] pairs with bounds[i]; counts[-1] is the overflow.
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.n: int = 0
        self.total: float = 0.0
        self.min: float = 0.0
        self.max: float = 0.0

    def record(self, value: float) -> None:
        """Add one observation."""
        if self.n == 0 or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.n += 1
        self.total += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, resolved to a bucket upper edge.

        Returns the upper bound of the bucket containing the p-th
        percentile observation (the recorded maximum for the overflow
        bucket), 0.0 when empty.
        """
        if self.n == 0:
            return 0.0
        rank = nearest_rank(p, self.n)
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                if index == len(self.bounds):
                    return self.max
                return min(self.bounds[index], self.max)
        return self.max  # pragma: no cover - counts always sum to n

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (used by the trace exporters)."""
        return {
            "n": self.n,
            "mean": self.mean,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "bounds": self.bounds,
            "counts": self.counts,
        }
