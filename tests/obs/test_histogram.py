"""Tests for the fixed-bucket latency histogram."""

import pytest

from repro.obs.histogram import Histogram


def test_empty_histogram():
    h = Histogram()
    assert h.n == 0
    assert h.mean == 0.0
    assert h.percentile(50) == 0.0


def test_record_and_mean():
    h = Histogram()
    for v in (10.0, 20.0, 30.0):
        h.record(v)
    assert h.n == 3
    assert h.mean == pytest.approx(20.0)
    assert h.min == 10.0
    assert h.max == 30.0


def test_percentile_resolves_to_bucket_edge():
    h = Histogram(bounds=[10, 100, 1000])
    for v in (5, 6, 7, 8, 9, 50, 60, 70, 500, 900):
        h.record(v)
    # 50th percentile: rank 5 of 10 falls in the <=10 bucket.
    assert h.percentile(50) == 10
    # 90th percentile: rank 9 falls in the <=1000 bucket, capped at max.
    assert h.percentile(90) == 900


def test_overflow_bucket_returns_max():
    h = Histogram(bounds=[10, 100])
    h.record(5)
    h.record(50_000)
    assert h.counts[-1] == 1
    assert h.percentile(99) == 50_000


def test_percentile_never_exceeds_max():
    h = Histogram(bounds=[10, 1_000_000])
    h.record(12.0)
    assert h.percentile(99) == 12.0


def test_bounds_must_ascend():
    with pytest.raises(ValueError):
        Histogram(bounds=[10, 10, 20])


def test_percentile_range_checked():
    h = Histogram()
    h.record(1.0)
    with pytest.raises(ValueError):
        h.percentile(0)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_to_dict_shape():
    h = Histogram(bounds=[10, 100])
    h.record(5)
    h.record(42)
    payload = h.to_dict()
    assert payload["n"] == 2
    assert payload["counts"] == [1, 1, 0]
    assert payload["bounds"] == [10, 100]
    assert set(payload) >= {"p50", "p95", "p99", "mean", "min", "max"}


def test_default_bounds_cover_simulated_latencies():
    h = Histogram()
    # 1 ns (a cpu op) .. 10 ms (far beyond any run) all land in buckets.
    h.record(1.0)
    h.record(361.0)  # PCM write service
    h.record(1e7)
    assert h.counts[-1] == 0


def test_to_dict_carries_exact_total():
    h = Histogram(bounds=[10])
    h.record(0.1)
    h.record(0.2)
    assert h.to_dict()["total"] == pytest.approx(0.30000000000000004)


def test_nearest_rank_definition():
    from repro.obs.histogram import nearest_rank

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
    """Histogram and SimResult must share one nearest-rank definition."""
    import random

    from repro.common.stats import Stats
    from repro.sim.metrics import SimResult

    rng = random.Random(7)
    latencies = [rng.uniform(1, 1e6) for _ in range(101)]
    result = SimResult(
        total_time_ns=1.0, txn_latencies=list(latencies), stats=Stats()
    )
    ordered = sorted(latencies)
    h = Histogram(bounds=sorted(set(ordered)))  # exact-value buckets
    for v in latencies:
        h.record(v)
    for p in (50, 55, 90, 95, 99):
        exact = result.txn_latency_percentile(p)
        assert h.percentile(p) == pytest.approx(exact), f"p{p} diverged"
