"""The typed fleet-metrics registry: families and snapshots.

Covers the contracts the sweep runner depends on: idempotent
declaration, label-series bookkeeping, snapshot round-trips, and the
zero-overhead NULL_METRICS singleton.
"""

import json

import pytest

from repro.obs.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetrics,
    snapshot_value,
)


class TestFamilies:
    def test_counter_inc_and_labels(self):
        registry = MetricsRegistry()
        family = registry.counter("t_total", "help", labels=("status",))
        family.labels("ok").inc()
        family.labels("ok").inc(2)
        family.labels("failed").inc()
        assert family.value("ok") == 3
        assert family.value("failed") == 1
        assert family.value("never") == 0.0
        assert family.total() == 4

    def test_gauge_set_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("t_gauge", "help")
        gauge.set(5)
        gauge.dec()
        assert gauge.value() == 4

    def test_histogram_observe(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t_seconds", "help", bounds=(1, 10))
        hist.observe(0.5)
        hist.observe(50)
        series = hist.labels()
        assert series.hist.n == 2
        assert series.hist.counts == [1, 0, 1]

    def test_declaration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("t_total", "help", labels=("a",))
        again = registry.counter("t_total", "other help", labels=("a",))
        assert first is again

    def test_conflicting_redeclaration_raises(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "help")
        with pytest.raises(ValueError):
            registry.gauge("t_total", "help")
        with pytest.raises(ValueError):
            registry.counter("t_total", "help", labels=("status",))

    def test_wrong_label_arity_raises(self):
        registry = MetricsRegistry()
        family = registry.counter("t_total", "help", labels=("a", "b"))
        with pytest.raises(ValueError):
            family.labels("only-one")


class TestSnapshot:
    def test_snapshot_is_json_roundtrippable(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "help", labels=("s",)).labels("ok").inc(3)
        registry.histogram("t_wall", "help", bounds=(1, 2)).observe(1.5)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot_value(snapshot, "t_total", ("ok",)) == 3
        assert snapshot["families"]["t_wall"]["series"][0]["hist"]["n"] == 1


class TestNullMetrics:
    def test_disabled_and_shared(self):
        assert NULL_METRICS.enabled is False
        assert isinstance(NULL_METRICS, NullMetrics)
        family = NULL_METRICS.counter("t_total", "h", labels=("s",))
        assert family.labels("anything", "arity", "ignored") is family

    def test_all_operations_are_noops(self):
        family = NULL_METRICS.histogram("t_wall", "h")
        family.inc()
        family.dec()
        family.set(5)
        family.observe(1.0)
        assert family.value() == 0.0
        assert family.total() == 0.0
        assert NULL_METRICS.snapshot() == {"families": {}}
