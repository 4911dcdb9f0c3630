"""Tests for the memory controller's scheduling and ADR behaviour."""

import pytest

from repro.common.config import MemoryConfig, SimConfig, TimingConfig
from repro.common.stats import Stats
from repro.memory.controller import MemoryController
from repro.memory.write_queue import WQEntry

T = TimingConfig()
WS = T.write_service_ns


def make_mc(wq_entries=4, cwc=False, **mem_kwargs):
    mem_kwargs.setdefault("capacity", 8 << 20)
    config = SimConfig(
        memory=MemoryConfig(write_queue_entries=wq_entries, **mem_kwargs),
        cwc_enabled=cwc,
    )
    stats = Stats()
    return MemoryController(config, stats), stats


def data_line_in_bank(mc, bank):
    """First data line whose page maps to ``bank``."""
    return bank * 64  # page `bank` -> bank `bank` under page interleaving


def test_append_without_pressure_is_instant():
    mc, _ = make_mc()
    assert mc.append_write(10.0, line=0) == 10.0
    assert len(mc.wq) == 1


def test_appends_stall_when_queue_full():
    """With a 2-entry queue and one bank, the fourth same-instant append
    must wait for a drain slot (the first append issues immediately, the
    next two fill the queue)."""
    mc, stats = make_mc(wq_entries=2)
    line = data_line_in_bank(mc, 0)
    for _ in range(3):
        t = mc.append_write(0.0, line=line)
        assert t == 0.0
    t = mc.append_write(0.0, line=line)
    assert t > 0.0
    assert stats.get("wq", "full_stalls") >= 1
    assert stats.get("wq", "stall_ns") > 0


def test_drain_parallel_banks():
    """Writes to different banks complete in ~one service time."""
    mc, stats = make_mc(wq_entries=8)
    for bank in range(4):
        mc.append_write(0.0, line=data_line_in_bank(mc, bank))
    finish = mc.drain_all()
    # bus serialisation adds bus_ns per issue
    assert finish <= WS + 4 * T.bus_ns + 1e-9


def test_drain_same_bank_serializes():
    mc, stats = make_mc(wq_entries=8)
    page0 = 0
    for i in range(4):
        mc.append_write(0.0, line=i)  # four lines of page 0 -> bank 0
    finish = mc.drain_all()
    assert finish >= 4 * WS


def test_drain_applies_payloads():
    mc, _ = make_mc()
    payload = bytes([9] * 64)
    mc.append_write(0.0, line=3, payload=payload)
    mc.drain_all()
    assert mc.nvm.read_line(3) == payload


def test_advance_to_issues_lazily():
    """The drain engages at the high watermark (6 of 8 entries) and then
    drains down to the low watermark (2)."""
    mc, stats = make_mc(wq_entries=8)
    for i in range(5):
        mc.append_write(0.0, line=i)
    mc.advance_to(10 * WS)
    assert stats.get("wq", "issued") == 0  # below high watermark: no drain
    mc.append_write(0.0, line=5)  # occupancy 6 = high watermark
    mc.advance_to(20 * WS)
    assert stats.get("wq", "issued") == 4  # drained 6 -> 2 (low watermark)
    assert len(mc.wq) == 2


def test_read_forwarded_from_write_queue():
    mc, stats = make_mc()
    # Two writes to bank 0: the first issues eagerly, the second stays
    # queued behind the busy bank and can be forwarded.
    mc.append_write(0.0, line=6, payload=bytes(64))
    mc.append_write(0.0, line=7, payload=bytes(64))
    finish = mc.read(0.0, line=7)
    assert finish == pytest.approx(T.bus_ns)
    assert stats.get("wq", "read_forwards") == 1
    assert stats.get("mc", "reads") == 0


def test_read_from_bank():
    mc, stats = make_mc()
    finish = mc.read(5.0, line=0)
    assert stats.get("mc", "reads") == 1
    # Service starts at t (bus occupied concurrently), so the data arrives
    # after one row-miss read service.
    assert finish == pytest.approx(5.0 + T.read_service_ns)


def test_read_priority_over_queued_writes():
    """A read must not wait behind *queued* (unissued) writes."""
    mc, stats = make_mc(wq_entries=8)
    # Queue three writes to bank 0 at t=0; the first one is issued when we
    # advance. A read to a different line of bank 0 arriving at t=1 should
    # wait only for the in-flight write, not all three.
    for i in range(3):
        mc.append_write(0.0, line=i)
    finish = mc.read(1.0, line=63)  # page 0 line, bank 0, not in WQ? line 63 is page 0
    # line 63 IS page 0 -> it's not one of lines 0..2 so no forwarding
    assert stats.get("wq", "read_forwards") == 0
    assert finish < 2 * WS  # waited at most one write + read


def test_read_payload_prefers_wq():
    mc, _ = make_mc()
    mc.append_write(0.0, line=3, payload=bytes([1] * 64))
    assert mc.read_payload(3) == bytes([1] * 64)
    mc.drain_all()
    assert mc.read_payload(3) == bytes([1] * 64)


def test_append_pair_atomic():
    mc, _ = make_mc(wq_entries=4)
    data = WQEntry(line=0, bank=0, row=0, is_counter=False, enq_time=0.0)
    ctr = WQEntry(line=10**6, bank=4, row=0, is_counter=True, enq_time=0.0)
    t = mc.append_pair(0.0, data, ctr)
    assert t == 0.0
    assert len(mc.wq) == 2
    entries = list(mc.wq)
    assert entries[0].enq_time == entries[1].enq_time


def test_append_pair_stalls_for_two_slots():
    mc, _ = make_mc(wq_entries=2)
    # Fill: first append issues eagerly; the next two occupy both slots.
    for i in range(3):
        mc.append_write(0.0, line=i)
    data = WQEntry(line=10, bank=0, row=0, is_counter=False, enq_time=0.0)
    ctr = WQEntry(line=10**6, bank=4, row=0, is_counter=True, enq_time=0.0)
    t = mc.append_pair(0.0, data, ctr)
    assert t > 0.0  # had to drain both queued entries first


def test_append_pair_with_coalescing_needs_one_slot():
    mc, stats = make_mc(wq_entries=4, cwc=True)
    mc.append_write(0.0, line=5, is_counter=True)  # counter entry for line 5
    mc.append_write(0.0, line=0)
    mc.append_write(0.0, line=2)
    # queue has 3/4; a pair needs 2 slots normally, but its counter
    # coalesces with the queued one, so it fits without stalling.
    data = WQEntry(line=1, bank=0, row=0, is_counter=False, enq_time=0.0)
    ctr = WQEntry(line=5, bank=4, row=0, is_counter=True, enq_time=0.0)
    t = mc.append_pair(0.0, data, ctr)
    assert t == 0.0
    assert stats.get("wq", "cwc_coalesced") == 1
    assert len(mc.wq) + stats.get("wq", "issued") == 4


def test_adr_flush_persists_everything():
    mc, stats = make_mc()
    # Below the high watermark nothing drains; all three entries sit in
    # the queue until the ADR battery flushes them.
    mc.append_write(0.0, line=0, payload=bytes([1] * 64))
    mc.append_write(0.0, line=1, payload=bytes([2] * 64))
    flushed = mc.adr_flush()
    assert flushed == 2
    assert len(mc.wq) == 0
    for line, fill in ((0, 1), (1, 2)):
        assert mc.nvm.read_line(line) == bytes([fill] * 64)
    assert stats.get("wq", "adr_flushed") == 2


def test_counter_write_uses_explicit_bank():
    mc, stats = make_mc(wq_entries=8)
    # counter line placed in bank 7 explicitly
    mc.append_write(0.0, line=10**6, bank=7, row=0, is_counter=True)
    entry = next(iter(mc.wq))
    assert entry.bank == 7


def test_same_line_writes_issue_in_order():
    mc, stats = make_mc(wq_entries=8)
    mc.append_write(0.0, line=0, payload=bytes([1] * 64))
    mc.append_write(0.0, line=0, payload=bytes([2] * 64))
    mc.drain_all()
    assert mc.nvm.read_line(0) == bytes([2] * 64)


def test_xbank_style_parallel_drain_beats_single_bank():
    """The XBank speedup in miniature: data in bank 0 + counters in bank 4
    drain ~2x faster than data + counters all in bank 0."""
    # counters to a different bank
    mc_x, _ = make_mc(wq_entries=16)
    for i in range(4):
        mc_x.append_write(0.0, line=i)  # bank 0
        mc_x.append_write(0.0, line=10**6 + i, bank=4, row=10**5, is_counter=True)
    finish_x = mc_x.drain_all()

    # counters to the same bank
    mc_s, _ = make_mc(wq_entries=16)
    for i in range(4):
        mc_s.append_write(0.0, line=i)
        mc_s.append_write(0.0, line=10**6 + i, bank=0, row=10**5, is_counter=True)
    finish_s = mc_s.drain_all()

    # The counter-defer window delays the first counter write slightly, so
    # the parallel case is a bit above 1x; the serial case is ~2x.
    assert finish_s > 1.5 * finish_x
