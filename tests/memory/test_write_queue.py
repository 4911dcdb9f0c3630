"""Tests for the write queue and counter write coalescing."""

import dataclasses
from pathlib import Path

import pytest

from repro.common.errors import SimulationError
from repro.common.stats import Stats
from repro.memory import write_queue
from repro.memory.write_queue import (
    CWC_MERGE_IN_PLACE,
    CWC_REMOVE_OLDER,
    WriteQueue,
)


def make_wq(capacity=4, cwc=False, policy=CWC_REMOVE_OLDER):
    stats = Stats()
    return WriteQueue(capacity, stats, cwc_enabled=cwc, cwc_policy=policy), stats


def put(wq, line, is_counter=False, payload=None, t=0.0):
    """Append as the controller does: a counter write carries its CWC
    target. Returns whether it coalesced."""
    target = wq.cwc_target(line) if is_counter else None
    return wq.append(line, 0, is_counter, t, payload, target)


def test_append_and_len():
    wq, stats = make_wq()
    put(wq, 1)
    put(wq, 2, is_counter=True)
    assert len(wq) == 2
    assert stats.get("wq", "appends") == 2
    assert stats.get("wq", "data_appends") == 1
    assert stats.get("wq", "counter_appends") == 1


def test_full_and_has_space():
    wq, _ = make_wq(capacity=2)
    put(wq, 1)
    assert wq.n == 1 and wq.n < wq.capacity
    put(wq, 2)
    assert wq.n == wq.capacity == 2


def test_append_to_full_raises():
    wq, _ = make_wq(capacity=1)
    put(wq, 1)
    with pytest.raises(SimulationError):
        put(wq, 2)


def test_fifo_order_and_seq():
    wq, _ = make_wq()
    put(wq, 3)
    put(wq, 4)
    entries = list(wq)
    assert [e.line for e in entries] == [3, 4]
    assert entries[0].seq < entries[1].seq


def test_cwc_disabled_never_coalesces():
    wq, stats = make_wq(cwc=False)
    put(wq, 100, is_counter=True)
    coalesced = put(wq, 100, is_counter=True)
    assert coalesced is False
    assert len(wq) == 2
    assert stats.get("wq", "cwc_coalesced") == 0


def test_cwc_coalesces_same_counter_line():
    """Paper Figure 10-11: A_c, B_c, C_c, D_c to the same counter line
    collapse to a single (youngest) entry."""
    wq, stats = make_wq(capacity=8, cwc=True)
    put(wq, 100, is_counter=True, payload=b"A")
    put(wq, 100, is_counter=True, payload=b"B")
    put(wq, 100, is_counter=True, payload=b"C")
    put(wq, 100, is_counter=True, payload=b"D")
    assert len(wq) == 1
    remaining = next(iter(wq))
    assert remaining.payload == b"D"  # the youngest image survives
    assert stats.get("wq", "cwc_coalesced") == 3


def test_cwc_remove_older_appends_at_tail():
    """Removal (not in-place merge) delays the counter write (S3.4.3)."""
    wq, _ = make_wq(capacity=8, cwc=True)
    put(wq, 100, is_counter=True)
    put(wq, 1)
    put(wq, 100, is_counter=True)
    assert [e.line for e in wq] == [1, 100]


def test_cwc_merge_in_place_keeps_position():
    wq, _ = make_wq(capacity=8, cwc=True, policy=CWC_MERGE_IN_PLACE)
    put(wq, 100, is_counter=True, payload=b"old")
    put(wq, 1)
    put(wq, 100, is_counter=True, payload=b"new")
    assert [e.line for e in wq] == [100, 1]
    assert next(iter(wq)).payload == b"new"


def test_cwc_does_not_touch_data_entries():
    """Only counter-flagged entries participate (the one-bit flag)."""
    wq, _ = make_wq(capacity=8, cwc=True)
    put(wq, 100, is_counter=False)
    coalesced = put(wq, 100, is_counter=True)
    assert coalesced is False
    assert len(wq) == 2


def test_cwc_different_counter_lines_do_not_coalesce():
    wq, _ = make_wq(capacity=8, cwc=True)
    put(wq, 100, is_counter=True)
    put(wq, 101, is_counter=True)
    assert len(wq) == 2


def test_would_coalesce():
    wq, _ = make_wq(capacity=8, cwc=True)
    assert wq.would_coalesce(100) is False
    put(wq, 100, is_counter=True)
    assert wq.would_coalesce(100) is True
    assert wq.would_coalesce(101) is False


def test_would_coalesce_respects_cwc_flag():
    wq, _ = make_wq(capacity=8, cwc=False)
    put(wq, 100, is_counter=True)
    assert wq.would_coalesce(100) is False


def test_find_line_returns_youngest():
    wq, _ = make_wq(capacity=8)
    put(wq, 5, payload=b"old")
    put(wq, 5, payload=b"new")
    assert wq.find_line(5).payload == b"new"
    assert wq.find_line(6) is None


def test_remove_specific_entry():
    wq, _ = make_wq()
    put(wq, 1)
    put(wq, 2)
    wq.remove(wq.find_line(1))
    assert [e.line for e in wq] == [2]


def test_remove_rejects_field_equal_foreign_entry():
    """Removal is by identity: an equal-looking stranger is not queued."""
    wq, _ = make_wq()
    put(wq, 1, is_counter=True, payload=b"x")
    queued = wq.find_line(1)
    stranger = dataclasses.replace(queued)
    assert stranger.seq == queued.seq
    with pytest.raises(ValueError):
        wq.remove(stranger)
    assert len(wq) == 1
    assert list(wq) == [queued] and list(wq)[0] is queued
    assert wq.find_line(1) is queued
    wq.remove(queued)
    assert len(wq) == 0


def test_adr_flush_order_preserves_fifo():
    wq, _ = make_wq()
    put(wq, 1)
    put(wq, 2)
    assert [e.line for e in wq.adr_flush_order()] == [1, 2]


def test_peak_occupancy_stat():
    wq, stats = make_wq(capacity=4)
    put(wq, 1)
    put(wq, 2)
    wq.remove(wq.oldest())
    put(wq, 3)
    assert stats.get("wq", "peak_occupancy") == 2


def test_unknown_policy_rejected():
    with pytest.raises(SimulationError):
        WriteQueue(4, Stats(), cwc_policy="bogus")


def test_page_flush_coalesces_to_one_counter_write():
    """The headline CWC claim: flushing a page's 64 lines produces 64 data
    appends but only one surviving counter entry (S3.4.3's 128 -> 65)."""
    wq, stats = make_wq(capacity=130, cwc=True)
    for i in range(64):
        put(wq, i, is_counter=False)
        put(wq, 1000, is_counter=True)
    assert len(wq) == 65
    assert stats.get("wq", "cwc_coalesced") == 63


@pytest.mark.parametrize("policy", [CWC_REMOVE_OLDER, CWC_MERGE_IN_PLACE])
def test_coalescing_append_builds_no_entry(policy, monkeypatch):
    """A coalescing append changes the queued target in place.

    Under remove-older the same object moves to the tail as the new
    write: new append time, sequence number, bank and payload. Under
    merge-in-place it keeps its slot, time, bank and sequence number and
    takes the new payload. Either way no entry is built.
    """
    built = []
    real_entry = write_queue.WQEntry

    def counted_entry(*args):
        built.append(args)
        return real_entry(*args)

    monkeypatch.setattr(write_queue, "WQEntry", counted_entry)
    wq, stats = make_wq(capacity=4, cwc=True, policy=policy)
    wq.append(100, 2, True, 1.0, b"old")
    wq.append(5, 0, False, 2.0, b"data")
    older, data = wq.find_line(100), wq.find_line(5)
    assert len(built) == 2
    assert wq.append(100, 3, True, 3.0, b"new", wq.cwc_target(100)) is True
    assert len(built) == 2
    assert wq.find_line(100) is older and wq.cwc_target(100) is older
    assert len(wq) == 2 and older.payload == b"new"
    assert stats.get("wq", "cwc_coalesced") == 1
    assert stats.get("wq", "counter_appends") == 2
    if policy == CWC_REMOVE_OLDER:
        assert (older.enq_time, older.bank, older.seq) == (3.0, 3, 2)
        assert list(wq) == [data, older]
        assert wq.counters_by_bank == {3: [older]}
    else:
        assert (older.enq_time, older.bank, older.seq) == (1.0, 2, 0)
        assert list(wq) == [older, data]
        assert wq.counters_by_bank == {2: [older]}
    assert stats.get("wq", "peak_occupancy") == 2


def test_only_the_queue_builds_entries():
    """``WQEntry`` is built by the write queue alone."""
    src = Path(write_queue.__file__).resolve().parents[1]
    builders = sorted(
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        if "WQEntry(" in path.read_text()
    )
    assert builders == ["memory/write_queue.py"]
