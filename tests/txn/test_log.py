"""Tests for the undo-log wire format, allocation, and scanning."""

import pytest

from repro.common.address import CACHE_LINE_SIZE
from repro.common.errors import SimulationError
from repro.txn.log import (
    LogEntry,
    LogRegion,
    STATE_INVALID,
    STATE_VALID,
    scan_log,
)


class TestLogEntry:
    def test_header_is_one_line(self):
        entry = LogEntry(txn_id=1, target_addr=0x1000, length=256)
        assert len(entry.header_bytes()) == CACHE_LINE_SIZE

    def test_header_roundtrip(self):
        entry = LogEntry(txn_id=42, target_addr=0x2040, length=100)
        parsed = LogEntry.parse_header(entry.header_bytes(), header_addr=7)
        assert parsed is not None
        assert parsed.txn_id == 42
        assert parsed.target_addr == 0x2040
        assert parsed.length == 100
        assert parsed.state == STATE_VALID
        assert parsed.header_addr == 7

    def test_invalidated_header_roundtrip(self):
        entry = LogEntry(txn_id=1, target_addr=0, length=64, state=STATE_INVALID)
        parsed = LogEntry.parse_header(entry.header_bytes())
        assert parsed is not None and parsed.state == STATE_INVALID

    def test_garbage_rejected(self):
        assert LogEntry.parse_header(bytes(64)) is None
        assert LogEntry.parse_header(bytes([0xA5] * 64)) is None

    def test_bitflip_rejected_by_checksum(self):
        raw = bytearray(LogEntry(txn_id=1, target_addr=64, length=64).header_bytes())
        raw[8] ^= 0x01  # flip a txn_id bit
        assert LogEntry.parse_header(bytes(raw)) is None

    def test_line_counts(self):
        assert LogEntry(txn_id=1, target_addr=0, length=64).total_lines == 2
        assert LogEntry(txn_id=1, target_addr=0, length=65).total_lines == 3
        assert LogEntry(txn_id=1, target_addr=0, length=256).payload_lines == 4


class TestLogRegion:
    def test_alignment_enforced(self):
        with pytest.raises(SimulationError):
            LogRegion(base_addr=10, size=1024)
        with pytest.raises(SimulationError):
            LogRegion(base_addr=0, size=100)
        with pytest.raises(SimulationError):
            LogRegion(base_addr=0, size=64)

    def test_bump_allocation(self):
        region = LogRegion(base_addr=4096, size=1024)
        first = region.allocate(2)
        second = region.allocate(2)
        assert first == 4096
        assert second == 4096 + 128

    def test_wrap_around(self):
        region = LogRegion(base_addr=0, size=4 * 64)
        region.allocate(3)
        addr = region.allocate(2)  # 3+2 > 4 lines: wraps
        assert addr == 0

    def test_oversized_entry_rejected(self):
        region = LogRegion(base_addr=0, size=2 * 64)
        with pytest.raises(SimulationError):
            region.allocate(3)


class TestScanLog:
    def _memory_reader(self, memory):
        return lambda addr: bytes(memory.get(addr, bytes(CACHE_LINE_SIZE)))

    def test_scan_finds_entries_with_payload(self):
        region = LogRegion(base_addr=0, size=16 * 64)
        memory = {}
        entry = LogEntry(txn_id=3, target_addr=0x8000, length=128)
        addr = region.allocate(entry.total_lines)
        memory[addr] = entry.header_bytes()
        memory[addr + 64] = bytes([1] * 64)
        memory[addr + 128] = bytes([2] * 64)
        found = scan_log(region, self._memory_reader(memory))
        assert len(found) == 1
        assert found[0].old_data == bytes([1] * 64) + bytes([2] * 64)

    def test_scan_skips_garbage(self):
        region = LogRegion(base_addr=0, size=8 * 64)
        memory = {0: bytes([0xFF] * 64)}
        assert scan_log(region, self._memory_reader(memory)) == []

    def test_scan_separates_valid_and_invalid(self):
        region = LogRegion(base_addr=0, size=16 * 64)
        memory = {}
        valid = LogEntry(txn_id=1, target_addr=0, length=64)
        addr = region.allocate(valid.total_lines)
        memory[addr] = valid.header_bytes()
        invalid = LogEntry(txn_id=2, target_addr=64, length=64, state=STATE_INVALID)
        addr2 = region.allocate(invalid.total_lines)
        memory[addr2] = invalid.header_bytes()
        found = scan_log(region, self._memory_reader(memory))
        assert [e.state for e in found] == [STATE_VALID, STATE_INVALID]

    def test_old_data_truncated_to_length(self):
        region = LogRegion(base_addr=0, size=8 * 64)
        memory = {}
        entry = LogEntry(txn_id=1, target_addr=0, length=10)
        addr = region.allocate(entry.total_lines)
        memory[addr] = entry.header_bytes()
        memory[addr + 64] = bytes(range(64))
        found = scan_log(region, self._memory_reader(memory))
        assert found[0].old_data == bytes(range(10))
