"""Tests for the ``repro trace-report`` trace analysis."""

import pytest

from repro.core.schemes import Scheme
from repro.obs import Tracer
from repro.obs.export import chrome_trace_dict, write_chrome_trace
from repro.obs.report import (
    build_report,
    percentile,
    render_report,
    render_report_file,
)
from repro.sim.profiling import profile_run
from repro.sim.simulator import simulate_workload


@pytest.fixture(scope="module")
def traced_payload():
    tracer = Tracer()
    result = simulate_workload(
        "queue", Scheme.SUPERMEM, n_ops=60, request_size=1024, footprint=1 << 20,
        tracer=tracer,
    )
    return chrome_trace_dict(tracer), result, tracer


def test_bucket_totals_match_run_counters(traced_payload):
    payload, result, _ = traced_payload
    report = build_report(payload, n_buckets=8)
    assert len(report.buckets) == 8
    assert report.total_data_appends == result.data_writes
    assert report.total_counter_appends == result.counter_writes
    assert report.total_coalesced == result.coalesced_counter_writes
    assert sum(b.counter_appends for b in report.buckets) == result.counter_writes
    assert sum(b.coalesced for b in report.buckets) == result.coalesced_counter_writes
    assert report.total_stall_ns == pytest.approx(result.wq_stall_ns, rel=1e-6)


def test_report_shows_occupancy_dynamics(traced_payload):
    payload, _, _ = traced_payload
    report = build_report(payload, n_buckets=8)
    sampled = [b for b in report.buckets if b.wq_occ_n > 0]
    assert sampled, "no occupancy samples folded into buckets"
    assert any(b.wq_occ_max > 0 for b in sampled)
    assert all(b.wq_occ_mean <= b.wq_occ_max for b in sampled)


def test_report_folds_bank_busy_into_imbalance(traced_payload):
    payload, _, _ = traced_payload
    report = build_report(payload, n_buckets=8)
    busy_buckets = [b for b in report.buckets if any(b.bank_busy_ns.values())]
    assert busy_buckets
    for bucket in busy_buckets:
        assert bucket.bank_imbalance >= 1.0
        # Busy time within a bucket can never exceed the bucket span.
        span = bucket.end_ns - bucket.start_ns
        for busy in bucket.bank_busy_ns.values():
            assert busy <= span + 1e-6


def test_txn_percentiles_match_sim_result(traced_payload):
    """The report's percentiles are exact: read from the txn events with
    SimResult's nearest-rank definition. The trace stores microseconds, so
    the ns->us->ns round trip may move the last bit."""
    payload, result, _ = traced_payload
    report = build_report(payload)
    assert len(report.txn_ns) == result.n_txns
    for p, exact in (
        (50, result.p50_txn_latency_ns),
        (95, result.p95_txn_latency_ns),
        (99, result.p99_txn_latency_ns),
    ):
        assert percentile(report.txn_ns, p) == pytest.approx(exact, rel=1e-9)
    assert len(report.stall_durations_ns) == result.stats.get("wq", "full_stalls")


def _traced(workload, scheme, **kwargs):
    tracer = Tracer()
    result = simulate_workload(
        workload, scheme, n_ops=60, footprint=1 << 20, tracer=tracer, **kwargs
    )
    return chrome_trace_dict(tracer), result


def test_stalls_spread_over_the_phases_they_overlap():
    """One core stalls at most one phase's span per phase: a stall that
    crosses a phase boundary is split, not booked whole where it began."""
    payload, result = _traced("array", Scheme.WT_BASE, request_size=4096)
    report = build_report(payload, n_buckets=400)
    for bucket in report.buckets:
        assert bucket.stall_ns <= bucket.end_ns - bucket.start_ns + 1e-6
    total = sum(bucket.stall_ns for bucket in report.buckets)
    assert total == pytest.approx(result.wq_stall_ns, rel=1e-9)


def test_idle_banks_count_in_the_imbalance():
    """Idle banks count as 0: a phase where one of eight banks works reads
    8.0, and one phase over the run matches the run's profile."""
    payload, result = _traced("array", Scheme.WT_BASE)
    report = build_report(payload, n_buckets=100)
    lone = [
        b for b in report.buckets
        if sum(busy > 0 for busy in b.bank_busy_ns.values()) == 1
    ]
    assert lone
    for bucket in lone:
        assert len(bucket.bank_busy_ns) == 8
        assert bucket.bank_imbalance == pytest.approx(8.0)
    whole = build_report(payload, n_buckets=1).buckets[0]
    assert whole.bank_imbalance == pytest.approx(
        profile_run(result).bank_imbalance, rel=1e-9
    )


def test_coalesce_rate_bounded(traced_payload):
    payload, _, _ = traced_payload
    report = build_report(payload, n_buckets=6)
    for bucket in report.buckets:
        assert 0.0 <= bucket.coalesce_rate <= 1.0


def test_render_mentions_key_series(traced_payload):
    payload, _, _ = traced_payload
    text = render_report(payload, n_buckets=6)
    assert "wq occ" in text
    assert "coal %" in text
    assert "bank imbal" in text
    assert "txn latency" in text
    assert len([l for l in text.splitlines() if l.lstrip().startswith(tuple("012345"))]) >= 6


def test_render_report_file_round_trip(traced_payload, tmp_path):
    _, _, tracer = traced_payload
    path = tmp_path / "trace.json"
    write_chrome_trace(tracer, str(path))
    text = render_report_file(str(path), n_buckets=4)
    assert "trace span" in text


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        build_report({"traceEvents": []})


def test_bucket_count_validated(traced_payload):
    payload, _, _ = traced_payload
    with pytest.raises(ValueError):
        build_report(payload, n_buckets=0)
