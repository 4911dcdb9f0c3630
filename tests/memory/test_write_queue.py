"""Tests for the write queue and counter write coalescing."""

import pytest

from repro.common.errors import SimulationError
from repro.common.stats import Stats
from repro.memory.write_queue import (
    CWC_MERGE_IN_PLACE,
    CWC_REMOVE_OLDER,
    WQEntry,
    WriteQueue,
)


def entry(line, is_counter=False, payload=None, t=0.0):
    return WQEntry(line=line, bank=0, row=0, is_counter=is_counter, enq_time=t, payload=payload)


def make_wq(capacity=4, cwc=False, policy=CWC_REMOVE_OLDER):
    stats = Stats()
    return WriteQueue(capacity, stats, cwc_enabled=cwc, cwc_policy=policy), stats


def test_append_and_len():
    wq, stats = make_wq()
    wq.append(entry(1))
    wq.append(entry(2, is_counter=True))
    assert len(wq) == 2
    assert stats.get("wq", "appends") == 2
    assert stats.get("wq", "data_appends") == 1
    assert stats.get("wq", "counter_appends") == 1


def test_full_and_has_space():
    wq, _ = make_wq(capacity=2)
    wq.append(entry(1))
    assert wq.n == 1 and wq.n < wq.capacity
    wq.append(entry(2))
    assert wq.n == wq.capacity == 2


def test_append_to_full_raises():
    wq, _ = make_wq(capacity=1)
    wq.append(entry(1))
    with pytest.raises(SimulationError):
        wq.append(entry(2))


def test_fifo_order_and_seq():
    wq, _ = make_wq()
    wq.append(entry(3))
    wq.append(entry(4))
    entries = list(wq)
    assert [e.line for e in entries] == [3, 4]
    assert entries[0].seq < entries[1].seq


def test_cwc_disabled_never_coalesces():
    wq, stats = make_wq(cwc=False)
    wq.append(entry(100, is_counter=True))
    coalesced = wq.append(entry(100, is_counter=True))
    assert coalesced is False
    assert len(wq) == 2
    assert stats.get("wq", "cwc_coalesced") == 0


def test_cwc_coalesces_same_counter_line():
    """Paper Figure 10-11: A_c, B_c, C_c, D_c to the same counter line
    collapse to a single (youngest) entry."""
    wq, stats = make_wq(capacity=8, cwc=True)
    wq.append(entry(100, is_counter=True, payload=b"A"))
    wq.append(entry(100, is_counter=True, payload=b"B"))
    wq.append(entry(100, is_counter=True, payload=b"C"))
    wq.append(entry(100, is_counter=True, payload=b"D"))
    assert len(wq) == 1
    remaining = next(iter(wq))
    assert remaining.payload == b"D"  # the youngest image survives
    assert stats.get("wq", "cwc_coalesced") == 3


def test_cwc_remove_older_appends_at_tail():
    """Removal (not in-place merge) delays the counter write (S3.4.3)."""
    wq, _ = make_wq(capacity=8, cwc=True)
    wq.append(entry(100, is_counter=True))
    wq.append(entry(1))
    wq.append(entry(100, is_counter=True))
    assert [e.line for e in wq] == [1, 100]


def test_cwc_merge_in_place_keeps_position():
    wq, _ = make_wq(capacity=8, cwc=True, policy=CWC_MERGE_IN_PLACE)
    wq.append(entry(100, is_counter=True, payload=b"old"))
    wq.append(entry(1))
    wq.append(entry(100, is_counter=True, payload=b"new"))
    assert [e.line for e in wq] == [100, 1]
    assert next(iter(wq)).payload == b"new"


def test_cwc_does_not_touch_data_entries():
    """Only counter-flagged entries participate (the one-bit flag)."""
    wq, _ = make_wq(capacity=8, cwc=True)
    wq.append(entry(100, is_counter=False))
    coalesced = wq.append(entry(100, is_counter=True))
    assert coalesced is False
    assert len(wq) == 2


def test_cwc_different_counter_lines_do_not_coalesce():
    wq, _ = make_wq(capacity=8, cwc=True)
    wq.append(entry(100, is_counter=True))
    wq.append(entry(101, is_counter=True))
    assert len(wq) == 2


def test_would_coalesce():
    wq, _ = make_wq(capacity=8, cwc=True)
    assert wq.would_coalesce(100) is False
    wq.append(entry(100, is_counter=True))
    assert wq.would_coalesce(100) is True
    assert wq.would_coalesce(101) is False


def test_would_coalesce_respects_cwc_flag():
    wq, _ = make_wq(capacity=8, cwc=False)
    wq.append(entry(100, is_counter=True))
    assert wq.would_coalesce(100) is False


def test_find_line_returns_youngest():
    wq, _ = make_wq(capacity=8)
    wq.append(entry(5, payload=b"old"))
    wq.append(entry(5, payload=b"new"))
    assert wq.find_line(5).payload == b"new"
    assert wq.find_line(6) is None


def test_remove_specific_entry():
    wq, _ = make_wq()
    first = entry(1)
    second = entry(2)
    wq.append(first)
    wq.append(second)
    wq.remove(first)
    assert [e.line for e in wq] == [2]


def test_remove_rejects_field_equal_foreign_entry():
    """Removal is by identity: an equal-looking stranger is not queued."""
    wq, _ = make_wq()
    queued = entry(1, is_counter=True, payload=b"x")
    wq.append(queued)
    stranger = entry(1, is_counter=True, payload=b"x")
    stranger.seq = queued.seq
    with pytest.raises(ValueError):
        wq.remove(stranger)
    assert len(wq) == 1
    assert list(wq) == [queued] and list(wq)[0] is queued
    assert wq.find_line(1) is queued
    wq.remove(queued)
    assert len(wq) == 0


def test_adr_flush_order_preserves_fifo():
    wq, _ = make_wq()
    wq.append(entry(1))
    wq.append(entry(2))
    assert [e.line for e in wq.adr_flush_order()] == [1, 2]


def test_peak_occupancy_stat():
    wq, stats = make_wq(capacity=4)
    wq.append(entry(1))
    wq.append(entry(2))
    wq.remove(wq.oldest())
    wq.append(entry(3))
    assert stats.get("wq", "peak_occupancy") == 2


def test_unknown_policy_rejected():
    with pytest.raises(SimulationError):
        WriteQueue(4, Stats(), cwc_policy="bogus")


def test_page_flush_coalesces_to_one_counter_write():
    """The headline CWC claim: flushing a page's 64 lines produces 64 data
    appends but only one surviving counter entry (S3.4.3's 128 -> 65)."""
    wq, stats = make_wq(capacity=130, cwc=True)
    for i in range(64):
        wq.append(entry(i, is_counter=False))
        wq.append(entry(1000, is_counter=True))
    assert len(wq) == 65
    assert stats.get("wq", "cwc_coalesced") == 63
