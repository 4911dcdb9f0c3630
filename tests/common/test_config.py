"""Tests for the configuration dataclasses."""

import pytest

from repro.common.address import PAGE_SIZE
from repro.common.config import (
    CacheConfig,
    CounterCacheConfig,
    CounterCacheMode,
    CounterPlacementPolicy,
    MemoryConfig,
    SimConfig,
    TimingConfig,
)
from repro.common.errors import ConfigError


def test_default_sim_config_matches_paper_table2():
    cfg = SimConfig()
    assert cfg.l1.size == 32 << 10 and cfg.l1.latency_cycles == 2
    assert cfg.l2.size == 512 << 10 and cfg.l2.latency_cycles == 16
    assert cfg.l3.size == 4 << 20 and cfg.l3.latency_cycles == 30
    assert cfg.counter_cache.size == 256 << 10
    assert cfg.counter_cache.assoc == 8
    assert cfg.counter_cache.latency_cycles == 8
    assert cfg.memory.n_banks == 8
    assert cfg.memory.write_queue_entries == 32
    assert cfg.timing.aes_cycles == 24


def test_timing_paper_latencies():
    t = TimingConfig()
    assert t.trcd_ns == 48.0
    assert t.tcl_ns == 15.0
    assert t.tcwd_ns == 13.0
    assert t.tfaw_ns == 50.0
    assert t.twtr_ns == 7.5
    assert t.twr_ns == 300.0
    assert t.read_service_ns == 63.0
    assert t.write_service_ns == pytest.approx(361.0)
    assert t.aes_ns == pytest.approx(12.0)  # 24 cycles @ 2 GHz


def test_writes_dominate_reads():
    """PCM's slow cell writes are the premise of the whole paper."""
    t = TimingConfig()
    assert t.write_service_ns > 4 * t.read_service_ns


def test_cycles_to_ns():
    t = TimingConfig(cpu_freq_ghz=2.0)
    assert t.cycles_to_ns(30) == 15.0


def test_cache_geometry():
    cache = CacheConfig(size=32 << 10, assoc=8, latency_cycles=2)
    assert cache.n_sets == 64
    assert cache.n_lines == 512


def test_cache_invalid_geometry():
    with pytest.raises(ConfigError):
        CacheConfig(size=1000, assoc=8, latency_cycles=2)
    with pytest.raises(ConfigError):
        CacheConfig(size=0, assoc=8, latency_cycles=2)
    with pytest.raises(ConfigError):
        CacheConfig(size=32 << 10, assoc=8, latency_cycles=-1)


def test_counter_cache_reach():
    """A 256 KB counter cache covers 16 MB of data (4096 pages)."""
    cc = CounterCacheConfig(size=256 << 10, assoc=8, latency_cycles=8)
    assert cc.n_lines == 4096
    assert cc.n_lines * PAGE_SIZE == 16 << 20
    assert cc.mode is CounterCacheMode.WRITE_THROUGH


def test_memory_config_rejects_tiny_write_queue():
    with pytest.raises(ConfigError):
        MemoryConfig(write_queue_entries=1)


def test_address_map_roundtrip():
    cfg = SimConfig(memory=MemoryConfig(capacity=16 << 20, n_banks=8))
    amap = cfg.address_map()
    assert amap.capacity == 16 << 20
    assert amap.n_banks == 8


def test_invalid_timing_rejected():
    with pytest.raises(ConfigError):
        TimingConfig(twr_ns=0)
    with pytest.raises(ConfigError):
        TimingConfig(aes_cycles=-1)


def test_placement_policy_values():
    assert CounterPlacementPolicy.SINGLE_BANK.value == "single-bank"
    assert CounterPlacementPolicy.SAME_BANK.value == "same-bank"
    assert CounterPlacementPolicy.XBANK.value == "xbank"


def test_configs_are_frozen():
    cfg = SimConfig()
    with pytest.raises(AttributeError):
        cfg.encrypted = False
    with pytest.raises(AttributeError):
        cfg.timing.twr_ns = 1.0
