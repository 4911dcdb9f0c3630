"""Tests for the generic set-associative LRU cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CacheConfig
from repro.common.stats import Stats
from repro.cache.sram import SetAssociativeCache


def make_cache(size=4096, assoc=4):
    """64-line default: 16 sets x 4 ways."""
    stats = Stats()
    cache = SetAssociativeCache(
        CacheConfig(size=size, assoc=assoc, latency_cycles=1), stats, "t"
    )
    return cache, stats


def test_miss_then_hit():
    cache, stats = make_cache()
    hit, _ = cache.access(5, write=False)
    assert hit is False
    hit, _ = cache.access(5, write=False)
    assert hit is True
    assert stats.get("t", "hits") == 1
    assert stats.get("t", "misses") == 1


def test_write_marks_dirty():
    cache, _ = make_cache()
    cache.access(5, write=True)
    assert cache.is_dirty(5)
    cache.access(6, write=False)
    assert not cache.is_dirty(6)


def test_read_after_write_stays_dirty():
    cache, _ = make_cache()
    cache.access(5, write=True)
    cache.access(5, write=False)
    assert cache.is_dirty(5)


def test_lru_eviction_order():
    cache, _ = make_cache(size=4 * 64, assoc=4)  # one set, 4 ways
    for line in range(4):
        cache.access(line, write=False)
    cache.access(0, write=False)  # 0 becomes MRU; 1 is now LRU
    _, evicted = cache.access(100, write=False)
    assert evicted is not None and evicted.line == 1


def test_eviction_reports_dirtiness():
    cache, stats = make_cache(size=4 * 64, assoc=4)
    cache.access(0, write=True)
    for line in range(1, 4):
        cache.access(line, write=False)
    _, evicted = cache.access(4, write=False)
    assert evicted.line == 0 and evicted.dirty
    assert stats.get("t", "dirty_evictions") == 1


def test_sets_are_independent():
    cache, _ = make_cache(size=2 * 4 * 64, assoc=4)  # 2 sets
    # lines 0,2,4,... map to set 0; 1,3,5,... to set 1
    for line in (0, 2, 4, 6):
        cache.access(line, write=False)
    _, evicted = cache.access(1, write=False)  # other set has room
    assert evicted is None


def test_clean_keeps_line_resident():
    cache, _ = make_cache()
    cache.access(5, write=True)
    assert cache.clean(5) is True
    assert cache.contains(5)
    assert not cache.is_dirty(5)
    assert cache.clean(5) is False  # already clean


def test_clean_absent_line():
    cache, _ = make_cache()
    assert cache.clean(99) is False


def test_invalidate_removes_line():
    cache, _ = make_cache()
    cache.access(5, write=True)
    assert cache.invalidate(5) is True
    assert not cache.contains(5)
    assert cache.invalidate(5) is False


def test_fill_does_not_count_access():
    cache, stats = make_cache()
    cache.fill(7)
    assert stats.get("t", "accesses") == 0
    assert cache.contains(7)


def test_fill_existing_line_merges_dirty():
    cache, _ = make_cache()
    cache.fill(7, dirty=False)
    cache.fill(7, dirty=True)
    assert cache.is_dirty(7)
    cache.fill(7, dirty=False)  # cannot un-dirty via fill
    assert cache.is_dirty(7)


def test_mark_dirty():
    """A write hit dirties a resident clean line in place: no miss, no
    eviction, and the line keeps its slot."""
    cache, stats = make_cache()
    cache.fill(3)
    assert not cache.is_dirty(3)
    hit, evicted = cache.access(3, write=True)
    assert hit is True and evicted is None
    assert cache.is_dirty(3)
    assert stats.get("t", "misses") == 0
    assert len(cache) == 1


def test_flush_all_returns_dirty_lines():
    cache, _ = make_cache()
    cache.access(1, write=True)
    cache.access(2, write=False)
    cache.access(3, write=True)
    lost = cache.flush_all()
    assert sorted(lost) == [1, 3]
    assert len(cache) == 0


def test_dirty_lines_iterator():
    cache, _ = make_cache()
    cache.access(1, write=True)
    cache.access(2, write=False)
    assert set(cache.dirty_lines()) == {1}
    assert len(cache) == 2 and cache.contains(2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 200), st.booleans()), max_size=300))
def test_property_capacity_never_exceeded(ops):
    cache, _ = make_cache(size=8 * 64, assoc=2)  # 4 sets x 2 ways = 8 lines
    for line, write in ops:
        cache.access(line, write)
        assert len(cache) <= 8


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=200))
def test_property_most_recent_access_is_resident(lines):
    cache, _ = make_cache(size=4 * 64, assoc=4)
    for line in lines:
        cache.access(line, write=False)
        assert cache.contains(line)
