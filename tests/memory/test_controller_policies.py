"""Controller drain-policy and watermark behaviour tests."""

import dataclasses

import pytest

from repro.common.config import MemoryConfig, SimConfig, TimingConfig
from repro.common.errors import SimulationError
from repro.common.stats import Stats
from repro.memory.controller import MemoryController

T = TimingConfig()
WS = T.write_service_ns


def make_mc(**kwargs):
    cwc = kwargs.pop("cwc", False)
    mem = MemoryConfig(capacity=8 << 20, **kwargs)
    cfg = SimConfig(memory=mem, cwc_enabled=cwc)
    stats = Stats()
    return MemoryController(cfg, stats), stats


def test_unknown_drain_policy_rejected():
    with pytest.raises(SimulationError):
        make_mc(drain_policy="random")


def test_explicit_watermarks_respected():
    mc, stats = make_mc(
        write_queue_entries=8, wq_high_watermark=4, wq_low_watermark=1
    )
    for i in range(3):
        mc.append_write(0.0, line=i)
    mc.advance_to(100 * WS)
    assert stats.get("wq", "issued") == 0  # below high watermark
    mc.append_write(0.0, line=3)  # reaches high=4
    mc.advance_to(200 * WS)
    assert len(mc.wq) == 1  # drained down to low=1


@pytest.mark.parametrize("low", [0, 1])
def test_drain_releases_at_the_low_watermark_even_when_it_empties(low):
    """A drain that empties the queue disengages: the next lone write,
    below the high watermark, stays queued."""
    mc, stats = make_mc(
        write_queue_entries=8, wq_high_watermark=4, wq_low_watermark=low
    )
    for i in range(4):
        mc.append_write(0.0, line=i)  # reaches high=4
    mc.advance_to(100 * WS)
    assert len(mc.wq) == low
    issued = stats.get("wq", "issued")
    mc.append_write(mc.clock, line=4)
    mc.advance_to(mc.clock + 100 * WS)
    assert stats.get("wq", "issued") == issued
    assert len(mc.wq) == low + 1


def test_bad_watermarks_rejected():
    with pytest.raises(SimulationError):
        make_mc(write_queue_entries=8, wq_high_watermark=2, wq_low_watermark=4)
    with pytest.raises(SimulationError):
        make_mc(write_queue_entries=8, wq_high_watermark=9, wq_low_watermark=1)


def test_counter_defer_window_delays_counters():
    """Under defer-counters, a lone counter write issues only after its
    deferral window even though its bank is idle."""
    mc, stats = make_mc(write_queue_entries=4, wq_high_watermark=1, wq_low_watermark=0)
    defer = mc._counter_defer_ns
    assert defer > 0
    mc.append_write(0.0, line=10**6, bank=4, is_counter=True)
    mc.advance_to(defer * 0.5)
    assert stats.get("wq", "issued") == 0
    mc.advance_to(defer + 1.0)
    assert stats.get("wq", "issued") == 1


@pytest.mark.parametrize("depth", [8, 32, 128])
def test_defer_window_scales_with_queue_depth(depth):
    """The window is a counter entry's natural residency in the queue,
    depth / (2 x banks) write services, and 0 outside defer-counters."""
    mc, _ = make_mc(write_queue_entries=depth)
    assert mc._counter_defer_ns == depth * WS / (2.0 * 8)
    for policy in ("frfcfs", "fifo"):
        mc, _ = make_mc(write_queue_entries=depth, drain_policy=policy)
        assert mc._counter_defer_ns == 0.0


def test_defer_window_scales_with_bank_count():
    """Twice the banks drain a queue twice as fast: half the window."""
    eight, _ = make_mc(write_queue_entries=32)
    sixteen, _ = make_mc(write_queue_entries=32, n_banks=16)
    assert sixteen._counter_defer_ns == 32 * WS / (2.0 * 16)
    assert sixteen._counter_defer_ns == eight._counter_defer_ns / 2


def test_frfcfs_issues_counters_eagerly():
    mc, stats = make_mc(
        drain_policy="frfcfs",
        write_queue_entries=4,
        wq_high_watermark=1,
        wq_low_watermark=0,
    )
    mc.append_write(0.0, line=10**6, bank=4, is_counter=True)
    mc.advance_to(1.0)
    assert stats.get("wq", "issued") == 1


def test_fifo_head_of_line_blocking():
    """Under FIFO, a write behind a busy-bank head waits even if its own
    bank is free."""
    mc, stats = make_mc(
        drain_policy="fifo",
        write_queue_entries=8,
        wq_high_watermark=1,
        wq_low_watermark=0,
    )
    # Two writes to bank 0 (head busy after first), then one to bank 3.
    mc.append_write(0.0, line=0)
    mc.append_write(0.0, line=1)
    mc.append_write(0.0, line=3 * 64)  # page 3 -> bank 3
    mc.advance_to(WS * 0.9)
    # Only the head issued; bank 3's write is blocked behind bank 0's.
    assert stats.get("wq", "issued") == 1
    mc.advance_to(WS * 2.5)
    assert stats.get("wq", "issued") == 3


def test_read_waits_for_inflight_write_on_same_bank():
    mc, _ = make_mc(write_queue_entries=4, wq_high_watermark=1, wq_low_watermark=0)
    mc.append_write(0.0, line=0)
    mc.advance_to(1.0)  # write issued, bank 0 busy until ~WS
    finish = mc.read(2.0, line=32)  # same page 0 -> bank 0, not in WQ
    assert finish > WS


def test_read_on_other_bank_unaffected_by_inflight_write():
    mc, _ = make_mc(write_queue_entries=4, wq_high_watermark=1, wq_low_watermark=0)
    mc.append_write(0.0, line=0)
    mc.advance_to(1.0)
    finish = mc.read(5.0, line=2 * 64)  # bank 2
    assert finish < 0.5 * WS
