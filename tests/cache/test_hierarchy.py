"""Tests for the L1/L2/L3 hierarchy and persistence instructions."""

import pytest

from repro.common.config import CacheConfig, TimingConfig
from repro.common.stats import Stats
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.sram import SetAssociativeCache


def small_hierarchy(stats=None):
    """Tiny hierarchy so evictions are easy to force.

    L1: 4 lines (1 set x 4), L2: 8 lines, L3: 16 lines.
    """
    stats = stats or Stats()
    return (
        CacheHierarchy(
            l1=CacheConfig(size=4 * 64, assoc=4, latency_cycles=2),
            l2=CacheConfig(size=8 * 64, assoc=8, latency_cycles=16),
            l3=CacheConfig(size=16 * 64, assoc=16, latency_cycles=30),
            timing=TimingConfig(),
            stats=stats,
        ),
        stats,
    )


def test_cold_read_misses_everywhere():
    h, _ = small_hierarchy()
    outcome = h.read(0)
    assert outcome.hit_level is None
    # visited all three levels: 2+16+30 cycles at 2 GHz = 24 ns
    assert outcome.latency_ns == pytest.approx(24.0)


def test_second_read_hits_l1():
    h, _ = small_hierarchy()
    h.read(0)
    outcome = h.read(0)
    assert outcome.hit_level == 1
    assert outcome.latency_ns == pytest.approx(1.0)  # 2 cycles @ 2 GHz


def test_l1_eviction_leaves_line_in_l2():
    h, _ = small_hierarchy()
    h.read(0)
    # fill L1 (1 set x 4 ways) with conflicting lines to evict line 0
    for line in range(1, 5):
        h.read(line)
    outcome = h.read(0)
    assert outcome.hit_level in (2, 3)


def test_write_then_read_hits_dirty():
    h, _ = small_hierarchy()
    h.write(7)
    assert h.l1.is_dirty(7)
    outcome = h.read(7)
    assert outcome.hit_level == 1


def test_dirty_eviction_cascades_to_memory():
    """Writing more distinct lines than L3 holds must produce write-backs."""
    h, stats = small_hierarchy()
    writebacks = []
    for line in range(64):
        outcome = h.write(line)
        writebacks.extend(outcome.memory_writebacks)
    assert writebacks, "L3 overflow of dirty lines must reach memory"
    assert stats.get("hierarchy", "memory_writebacks") == len(writebacks)


def test_clean_eviction_never_reaches_memory():
    h, _ = small_hierarchy()
    writebacks = []
    for line in range(64):
        outcome = h.read(line)
        writebacks.extend(outcome.memory_writebacks)
    assert writebacks == []


def test_clwb_dirty_line():
    h, _ = small_hierarchy()
    h.write(3)
    assert h.clwb(3) is True
    # line stays resident, now clean
    assert h.l1.contains(3)
    assert not h.l1.is_dirty(3)
    # second clwb is a no-op at memory
    assert h.clwb(3) is False


def test_clwb_absent_line():
    h, _ = small_hierarchy()
    assert h.clwb(42) is False


def test_clflush_invalidates():
    h, _ = small_hierarchy()
    h.write(3)
    assert h.clflush(3) is True
    assert not h.l1.contains(3)
    outcome = h.read(3)
    assert outcome.hit_level is None


def test_lose_all_volatile_state_reports_dirty():
    h, _ = small_hierarchy()
    h.write(1)
    h.write(2)
    h.read(3)
    h.clwb(2)
    lost = h.lose_all_volatile_state()
    assert lost == [1]
    assert not h.l1.contains(1)


def test_shared_l3_between_cores():
    stats = Stats()
    shared = SetAssociativeCache(
        CacheConfig(size=16 * 64, assoc=16, latency_cycles=30), stats, "l3"
    )
    mk = lambda: CacheHierarchy(
        l1=CacheConfig(size=4 * 64, assoc=4, latency_cycles=2),
        l2=CacheConfig(size=8 * 64, assoc=8, latency_cycles=16),
        l3=CacheConfig(size=16 * 64, assoc=16, latency_cycles=30),
        timing=TimingConfig(),
        stats=stats,
        shared_l3=shared,
    )
    core0, core1 = mk(), mk()
    core0.read(9)
    outcome = core1.read(9)
    assert outcome.hit_level == 3  # misses private L1/L2, hits shared L3


def test_shared_l3_sets_the_l3_latency():
    """The L3 latency is the installed shared cache's, even while it is
    empty, not the ``l3`` config's."""
    stats = Stats()
    shared = SetAssociativeCache(
        CacheConfig(size=16 * 64, assoc=16, latency_cycles=40), stats, "l3"
    )
    h = CacheHierarchy(
        l1=CacheConfig(size=4 * 64, assoc=4, latency_cycles=2),
        l2=CacheConfig(size=8 * 64, assoc=8, latency_cycles=16),
        l3=CacheConfig(size=16 * 64, assoc=16, latency_cycles=30),
        timing=TimingConfig(),
        stats=stats,
        shared_l3=shared,
    )
    # 2 + 16 + 40 cycles at 2 GHz
    assert h.read(0).latency_ns == pytest.approx(29.0)


def test_total_sram_latency():
    """A cold read looks up every level: 2 + 16 + 30 cycles at 2 GHz."""
    h, _ = small_hierarchy()
    assert h.read(0).latency_ns == pytest.approx(24.0)
