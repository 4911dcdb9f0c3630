"""Tests for the functional NVM store."""

import pytest

from repro.common.stats import Stats
from repro.memory.nvm import NVMStore, ZERO_LINE


def test_unwritten_line_reads_zero():
    nvm = NVMStore()
    assert nvm.read_line(5) == ZERO_LINE
    assert not nvm.contains(5)


def test_write_then_read():
    nvm = NVMStore()
    payload = bytes(range(64))
    nvm.write_line(5, payload)
    assert nvm.read_line(5) == payload
    assert nvm.contains(5)


def test_overwrite():
    nvm = NVMStore()
    nvm.write_line(5, bytes(64))
    payload = bytes([7] * 64)
    nvm.write_line(5, payload)
    assert nvm.read_line(5) == payload


def test_none_payload_counts_the_write_only():
    stats = Stats()
    nvm = NVMStore(stats)
    nvm.write_line(3, None)
    assert stats.get("nvm", "writes") == 1
    assert not nvm.contains(3)
    assert nvm.read_line(3) == ZERO_LINE


def test_wrong_payload_size_rejected():
    nvm = NVMStore()
    with pytest.raises(ValueError):
        nvm.write_line(0, b"short")


def test_stats_integration():
    stats = Stats()
    nvm = NVMStore(stats)
    nvm.write_line(0, None)
    nvm.read_line(0)
    assert stats.get("nvm", "writes") == 1
    assert stats.get("nvm", "reads") == 1


def test_snapshot_is_copy():
    nvm = NVMStore()
    nvm.write_line(0, bytes(64))
    snap = nvm.snapshot()
    nvm.write_line(0, bytes([1] * 64))
    assert snap[0] == bytes(64)


def test_counter_extension_indices_allowed():
    """Counter lines live beyond the data space; the store must accept them."""
    nvm = NVMStore()
    nvm.write_line(10**9, bytes(64))
    assert nvm.contains(10**9)
