"""Tests for the counter cache's write policies and crash behaviour."""

import pytest

from repro.common.config import CounterCacheConfig, CounterCacheMode
from repro.common.stats import Stats
from repro.cache.counter_cache import CounterCache


def make_cc(mode, size=8 * 64, assoc=8, battery=False):
    stats = Stats()
    config = CounterCacheConfig(
        size=size,
        assoc=assoc,
        latency_cycles=8,
        mode=mode,
        battery_backed=battery,
    )
    return CounterCache(config, stats), stats


class TestWriteThrough:
    def test_never_dirty(self):
        cc, _ = make_cc(CounterCacheMode.WRITE_THROUGH)
        cc.access(0, update=True)
        cc.access(0, update=True)
        assert not cc.is_dirty(0)

    def test_miss_requires_fetch(self):
        """``access`` returns ``(hit, writeback_page)``; a miss is the
        caller's cue to fetch the counter line."""
        cc, _ = make_cc(CounterCacheMode.WRITE_THROUGH)
        assert cc.access(0, update=False) == (False, None)
        assert cc.access(0, update=True) == (True, None)

    def test_evictions_never_write_back(self):
        cc, _ = make_cc(CounterCacheMode.WRITE_THROUGH, size=2 * 64, assoc=2)
        writebacks = []
        for page in range(10):
            _, wb = cc.access(page, update=True)
            if wb is not None:
                writebacks.append(wb)
        assert writebacks == []

    def test_crash_loses_nothing(self):
        cc, _ = make_cc(CounterCacheMode.WRITE_THROUGH)
        for page in range(4):
            cc.access(page, update=True)
        flushed, lost = cc.crash()
        assert flushed == [] and lost == []


class TestWriteBack:
    def test_update_marks_dirty(self):
        cc, _ = make_cc(CounterCacheMode.WRITE_BACK)
        cc.access(0, update=True)
        assert cc.is_dirty(0)
        cc.access(1, update=False)
        assert not cc.is_dirty(1)

    def test_dirty_eviction_writes_back(self):
        cc, stats = make_cc(CounterCacheMode.WRITE_BACK, size=2 * 64, assoc=2)
        cc.access(0, update=True)
        cc.access(2, update=True)  # same set (2 sets: pages 0,2 -> set 0)
        hit, wb = cc.access(4, update=True)
        assert (hit, wb) == (False, 0)
        assert stats.get("cc", "writebacks") == 1

    def test_crash_without_battery_loses_dirty(self):
        cc, _ = make_cc(CounterCacheMode.WRITE_BACK)
        cc.access(0, update=True)
        cc.access(1, update=False)
        flushed, lost = cc.crash()
        assert flushed == [] and lost == [0]

    def test_crash_with_battery_flushes_dirty(self):
        cc, _ = make_cc(CounterCacheMode.WRITE_BACK, battery=True)
        cc.access(0, update=True)
        flushed, lost = cc.crash()
        assert flushed == [0] and lost == []

    def test_drain_dirty_cleans(self):
        cc, _ = make_cc(CounterCacheMode.WRITE_BACK)
        cc.access(0, update=True)
        cc.access(1, update=True)
        assert sorted(cc.drain_dirty()) == [0, 1]
        assert not cc.is_dirty(0)
        assert cc.contains(0)


def test_hit_rate():
    cc, _ = make_cc(CounterCacheMode.WRITE_THROUGH)
    cc.access(0, update=False)
    cc.access(0, update=False)
    cc.access(0, update=False)
    cc.access(1, update=False)
    assert cc.hit_rate == pytest.approx(0.5)


def test_len_counts_resident_lines():
    cc, _ = make_cc(CounterCacheMode.WRITE_THROUGH)
    for page in range(3):
        cc.access(page, update=False)
    assert len(cc) == 3
