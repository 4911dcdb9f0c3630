"""Tests for post-run profiling."""

import pytest

from repro.core.schemes import Scheme
from repro.sim.profiling import profile_run
from repro.sim.simulator import simulate_workload


@pytest.fixture(scope="module")
def wt_profile():
    result = simulate_workload(
        "array", Scheme.WT_BASE, n_ops=40, request_size=1024, footprint=1 << 20
    )
    return profile_run(result)


@pytest.fixture(scope="module")
def xbank_profile():
    result = simulate_workload(
        "array", Scheme.WT_XBANK, n_ops=40, request_size=1024, footprint=1 << 20
    )
    return profile_run(result)


def test_eight_banks_reported(wt_profile):
    assert len(wt_profile.banks) == 8
    assert all(0 <= b.utilization <= 1 for b in wt_profile.banks)


def test_single_bank_bottleneck_visible(wt_profile):
    """WT-SingleBank: bank 7 (the counter bank) must be the hottest."""
    assert wt_profile.hottest_bank.index == 7
    assert wt_profile.bank_imbalance > 1.5


def test_xbank_spreads_load(wt_profile, xbank_profile):
    assert xbank_profile.bank_imbalance < wt_profile.bank_imbalance


def test_stall_accounting(wt_profile):
    assert wt_profile.wq_full_stalls > 0
    assert 0 <= wt_profile.stall_fraction < 1


def test_format_is_readable(wt_profile):
    text = wt_profile.format()
    assert "bank imbalance" in text
    assert "util" in text


def test_empty_profile_handles_zero_time():
    from repro.sim.metrics import SimResult

    profile = profile_run(SimResult(total_time_ns=0.0))
    assert profile.stall_fraction == 0.0
    assert profile.bank_imbalance == 0.0


def test_non_default_bank_count_derived_from_stats():
    """A 16-bank run must profile 16 banks without the caller saying so."""
    from repro.common.config import MemoryConfig, SimConfig

    base = SimConfig(memory=MemoryConfig(n_banks=16))
    result = simulate_workload(
        "array",
        Scheme.WT_BASE,
        n_ops=20,
        request_size=1024,
        footprint=1 << 20,
        base_config=base,
    )
    profile = profile_run(result)
    assert len(profile.banks) == 16
    assert sum(b.writes for b in profile.banks) > 0


def test_untouched_banks_profile_as_idle():
    """Every recorded bank is listed, including ones the run never used."""
    from repro.common.stats import Stats
    from repro.sim.metrics import SimResult

    stats = Stats()
    stats.set("config", "n_banks", 4)
    stats.inc("bank.1", "writes", 2)
    profile = profile_run(SimResult(total_time_ns=100.0, stats=stats))
    assert [b.writes for b in profile.banks] == [0, 2, 0, 0]


def test_journal_round_trip_keeps_bank_count():
    """A journaled 16-bank result profiles 16 banks when read back."""
    import json

    from repro.common.config import MemoryConfig, SimConfig
    from repro.experiments.journal import result_from_record, result_to_record

    result = simulate_workload(
        "array",
        Scheme.WT_BASE,
        n_ops=20,
        request_size=1024,
        footprint=1 << 20,
        base_config=SimConfig(memory=MemoryConfig(n_banks=16)),
    )
    record = json.loads(json.dumps(result_to_record(result)))
    reloaded = profile_run(result_from_record(record))
    assert reloaded == profile_run(result)
    assert len(reloaded.banks) == 16
