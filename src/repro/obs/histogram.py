"""The nearest-rank percentile definition.

One definition, shared by
:meth:`repro.sim.metrics.SimResult.txn_latency_percentile` and
``repro trace-report``, so a percentile read from a run's result and one
read from its trace can never disagree about which observation they
mean.
"""

from __future__ import annotations

import math


def nearest_rank(p: float, n: int) -> int:
    """The 1-based nearest-rank index of the p-th percentile of ``n``.

    ``max(1, ceil(p/100 * n))``: the smallest observation with at least
    ``p`` percent of the sample at or below it.
    """
    if not 0 < p <= 100:
        raise ValueError(f"percentile out of range: {p}")
    return max(1, math.ceil(p / 100.0 * n))
