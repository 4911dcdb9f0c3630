"""Tests for the result-validation invariants."""

import pytest

from repro.common.config import MemoryConfig, SimConfig
from repro.common.stats import Stats
from repro.core.schemes import Scheme
from repro.sim.metrics import SimResult
from repro.sim.simulator import simulate_workload
from repro.sim.validation import ValidationError, validate_result


@pytest.mark.parametrize(
    "scheme,encrypted,write_through",
    [
        (Scheme.UNSEC, False, None),
        (Scheme.WB_IDEAL, True, False),
        (Scheme.WT_BASE, True, True),
        (Scheme.SUPERMEM, True, True),
        (Scheme.SCA, True, False),
        (Scheme.OSIRIS, True, False),
    ],
)
def test_real_runs_validate(scheme, encrypted, write_through):
    result = simulate_workload(
        "array", scheme, n_ops=30, request_size=512, footprint=512 << 10
    )
    checks = validate_result(result, encrypted=encrypted, write_through=write_through)
    assert "write-conservation" in checks


def test_multicore_run_validates():
    from repro.sim.multicore import simulate_multiprogrammed

    result = simulate_multiprogrammed(
        "queue", Scheme.SUPERMEM, n_programs=2, n_ops=15, request_size=512
    )
    validate_result(result, encrypted=True, write_through=True)


def test_warmup_run_conserves_writes():
    """A smoke Figure 17 point: the warm-up's writes still queued when
    its counters reset issue inside the measured window, and write
    conservation counts them."""
    from repro.experiments.common import experiment_base_config, get_scale

    scale = get_scale("smoke")
    result = simulate_workload(
        "array",
        Scheme.SUPERMEM,
        n_ops=4 * scale.n_ops,
        request_size=1024,
        footprint=scale.footprint,
        base_config=experiment_base_config(scale, counter_cache_size=1 << 10),
        warmup_ops=scale.n_ops,
    )
    assert result.stats.get("wq", "carried_in") > 0
    checks = validate_result(result, encrypted=True, write_through=True)
    assert "write-conservation" in checks


def _result_with(counters):
    stats = Stats()
    for (space, name), value in counters.items():
        stats.set(space, name, value)
    return SimResult(total_time_ns=1000.0, txn_latencies=[1.0], stats=stats)


def test_conservation_violation_detected():
    result = _result_with({("wq", "appends"): 10, ("wq", "issued"): 7})
    with pytest.raises(ValidationError, match="write-conservation"):
        validate_result(result)


def test_classification_violation_detected():
    result = _result_with(
        {
            ("wq", "appends"): 10,
            ("wq", "issued"): 10,
            ("wq", "data_appends"): 4,
            ("wq", "counter_appends"): 4,
        }
    )
    with pytest.raises(ValidationError, match="append-classification"):
        validate_result(result)


def test_unsec_counter_traffic_detected():
    result = _result_with(
        {
            ("wq", "appends"): 4,
            ("wq", "issued"): 4,
            ("wq", "data_appends"): 2,
            ("wq", "counter_appends"): 2,
        }
    )
    with pytest.raises(ValidationError, match="unsec-no-counters"):
        validate_result(result, encrypted=False)


def test_negative_latency_detected():
    result = SimResult(total_time_ns=10.0, txn_latencies=[-1.0], stats=Stats())
    with pytest.raises(ValidationError, match="non-negative-latency"):
        validate_result(result)


def test_bank_busy_overflow_detected():
    result = _result_with({("bank.0", "busy_ns"): 5000.0})
    with pytest.raises(ValidationError, match="bank-busy-fits-run"):
        validate_result(result)


def test_bank_busy_checks_every_recorded_bank():
    """A 16-bank run checks banks 8+ too (the count comes from stats)."""
    config = SimConfig(memory=MemoryConfig(n_banks=16))
    result = simulate_workload(
        "array", Scheme.SUPERMEM, n_ops=10, request_size=512, base_config=config
    )
    validate_result(result)
    result.stats.set("bank.12", "busy_ns", result.total_time_ns + 1000.0)
    with pytest.raises(ValidationError, match="bank 12"):
        validate_result(result)
