"""Tests for the shared nearest-rank percentile definition."""

import pytest

from repro.obs.histogram import nearest_rank


def test_nearest_rank_definition():
    assert nearest_rank(50, 10) == 5
    assert nearest_rank(99, 10) == 10
    assert nearest_rank(1, 10) == 1
    assert nearest_rank(0.1, 1000) == 1
    assert nearest_rank(100, 7) == 7
    assert nearest_rank(55, 20) == 11
    assert nearest_rank(95, 101) == 96
    with pytest.raises(ValueError):
        nearest_rank(0, 10)
    with pytest.raises(ValueError):
        nearest_rank(101, 10)


def test_percentile_definition_matches_sim_metrics():
    """trace-report and SimResult must share one nearest-rank definition."""
    import random

    from repro.common.stats import Stats
    from repro.obs.report import percentile
    from repro.sim.metrics import SimResult

    rng = random.Random(7)
    latencies = [rng.uniform(1, 1e6) for _ in range(101)]
    result = SimResult(
        total_time_ns=1.0, txn_latencies=list(latencies), stats=Stats()
    )
    ordered = sorted(latencies)
    for p in (50, 55, 90, 95, 99):
        exact = result.txn_latency_percentile(p)
        assert percentile(ordered, p) == exact, f"p{p} diverged"
    assert percentile([], 50) == 0.0
