"""Fleet-metrics instrumentation of the sweep runner.

The contracts: a real registry's accounting must agree exactly with the
``RunnerReport`` the runner already keeps (same events, two ledgers),
including under a deterministic ``REPRO_FAULT``-style drill; results
must be bit-identical with and without a registry installed; and the
report's ``to_dict`` must round-trip failure events and the metrics
snapshot through JSON.
"""

import json

from repro.core.schemes import Scheme
from repro.experiments.common import experiment_base_config, get_scale
from repro.experiments.faults import FAULT_CRASH, FaultPlan, PointFault
from repro.experiments.journal import SweepJournal
from repro.experiments.runner import (
    METRIC_NAMES,
    PointSpec,
    RunnerPolicy,
    default_metrics,
    run_points_report,
    set_default_metrics,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, snapshot_value


def _specs(n=4, n_ops=5):
    base = experiment_base_config(get_scale("smoke"))
    return [
        PointSpec(
            workload=workload,
            scheme=scheme,
            n_ops=n_ops,
            request_size=256,
            footprint=1 << 20,
            base_config=base,
            seed=1,
        )
        for workload in ("array", "queue")
        for scheme in (Scheme.UNSEC, Scheme.SUPERMEM)
    ][:n]


FAST = RunnerPolicy(max_attempts=3, backoff_s=0.0)


def _assert_identical(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.total_time_ns == right.total_time_ns
        assert left.txn_latencies == right.txn_latencies


class TestSerialAccounting:
    def test_metrics_match_report(self):
        registry = MetricsRegistry()
        specs = _specs()
        results, report = run_points_report(specs, metrics=registry)
        assert all(r is not None for r in results)
        snapshot = report.metrics
        assert snapshot is not None
        assert snapshot_value(snapshot, "repro_sweep_points") == len(specs)
        assert snapshot_value(snapshot, "repro_sweep_done") == len(specs)
        assert snapshot_value(snapshot, "repro_sweep_points_total", ("ok",)) == len(
            specs
        )
        assert snapshot_value(
            snapshot, "repro_sweep_attempts_total", ("ok",)
        ) == len(specs)
        assert snapshot_value(snapshot, "repro_sweep_retries_total") == 0
        hist = snapshot["families"]["repro_sweep_point_wall_seconds"]
        assert hist["series"][0]["hist"]["n"] == report.point_wall_s.n == len(specs)

    def test_null_default_leaves_report_metrics_none(self):
        _, report = run_points_report(_specs(2))
        assert report.metrics is None

    def test_results_identical_with_and_without_registry(self):
        specs = _specs()
        bare, _ = run_points_report(specs)
        instrumented, _ = run_points_report(specs, metrics=MetricsRegistry())
        _assert_identical(bare, instrumented)

    def test_declared_families_equal_the_documented_vocabulary(self):
        registry = MetricsRegistry()
        run_points_report(_specs(2), metrics=registry)
        assert set(registry.families) == set(METRIC_NAMES)


class TestParallelAccounting:
    def test_crash_drill_counters_match_report(self):
        """The deterministic fault drill, fully accounted in metrics."""
        registry = MetricsRegistry()
        specs = _specs()
        faults = FaultPlan({1: PointFault(FAULT_CRASH)})
        results, report = run_points_report(
            specs, jobs=2, policy=FAST, faults=faults, metrics=registry
        )
        assert all(r is not None for r in results)
        assert report.retries == 1
        snapshot = report.metrics
        assert snapshot_value(snapshot, "repro_sweep_retries_total") == 1
        assert snapshot_value(
            snapshot, "repro_sweep_attempts_total", ("worker_died",)
        ) == 1
        assert snapshot_value(
            snapshot, "repro_sweep_attempts_total", ("ok",)
        ) == len(specs)
        assert snapshot_value(
            snapshot, "repro_sweep_workers_total", ("spawn",)
        ) == 2
        assert snapshot_value(
            snapshot, "repro_sweep_workers_total", ("kill",)
        ) == 1
        assert snapshot_value(
            snapshot, "repro_sweep_workers_total", ("respawn",)
        ) == 1
        # Parallel point walls are recorded at the parent.
        assert report.point_wall_s.n == len(specs)

    def test_resume_hits_and_misses(self, tmp_path):
        journal_path = str(tmp_path / "j.jsonl")
        specs = _specs()
        first, _ = run_points_report(specs, journal=journal_path)
        registry = MetricsRegistry()
        resumed, report = run_points_report(
            specs, journal=SweepJournal(journal_path), metrics=registry
        )
        _assert_identical(first, resumed)
        snapshot = report.metrics
        assert report.resumed == len(specs)
        assert snapshot_value(
            snapshot, "repro_journal_resume_hits_total"
        ) == len(specs)
        assert snapshot_value(snapshot, "repro_journal_resume_misses_total") == 0
        assert snapshot_value(
            snapshot, "repro_sweep_points_total", ("resumed",)
        ) == len(specs)
        assert snapshot_value(snapshot, "repro_sweep_done") == len(specs)


class TestReportRoundTrip:
    def test_to_dict_round_trips_failures_and_metrics(self):
        specs = _specs(2)
        faults = FaultPlan({0: PointFault(FAULT_CRASH, times=99)})
        policy = RunnerPolicy(
            max_attempts=2, backoff_s=0.0, serial_fallback=False
        )
        _, report = run_points_report(
            specs, policy=policy, faults=faults, metrics=MetricsRegistry()
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert len(payload["failures"]) == 1
        names = [e["name"] for e in payload["failure_events"]]
        assert names.count("point_retry") == report.retries == 1
        assert names.count("point_failure") == 1
        event = next(
            e for e in payload["failure_events"] if e["name"] == "point_failure"
        )
        assert event["cat"] == "runner"
        assert event["args"]["exc_type"] == "InjectedFault"
        assert snapshot_value(
            payload["metrics"], "repro_sweep_points_total", ("failed",)
        ) == 1

    def test_to_dict_without_metrics_keeps_none(self):
        _, report = run_points_report(_specs(2))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["metrics"] is None
        assert payload["failure_events"] == []


class TestDefaultRegistryInstaller:
    def test_install_and_restore(self):
        assert default_metrics() is NULL_METRICS
        registry = MetricsRegistry()
        set_default_metrics(registry)
        try:
            assert default_metrics() is registry
            _, report = run_points_report(_specs(2))
            assert report.metrics is not None
        finally:
            set_default_metrics(NULL_METRICS)
        assert default_metrics() is NULL_METRICS
