"""Tests for the memory domains (trace recording and direct execution)."""

import pytest

from repro.common.config import MemoryConfig, SimConfig
from repro.common.errors import SimulationError
from repro.core.schemes import Scheme, scheme_config
from repro.core.system import SecureMemorySystem
from repro.txn.persist import (
    DirectDomain,
    OP_CLWB,
    OP_FENCE,
    OP_LOAD,
    OP_STORE,
    OP_TXN_BEGIN,
    OP_TXN_END,
    TraceDomain,
    lines_of_range,
)


class TestLinesOfRange:
    def test_single_line(self):
        assert list(lines_of_range(0, 64)) == [0]
        assert list(lines_of_range(10, 4)) == [0]

    def test_straddling(self):
        assert list(lines_of_range(60, 8)) == [0, 1]

    def test_multi_line(self):
        assert list(lines_of_range(64, 256)) == [1, 2, 3, 4]

    def test_zero_size_rejected(self):
        with pytest.raises(SimulationError):
            lines_of_range(0, 0)


class TestTraceDomain:
    def test_load_emits_one_op_per_line(self):
        d = TraceDomain()
        d.load(0, 128)
        assert d.ops == [(OP_LOAD, 0), (OP_LOAD, 1)]

    def test_store_emits_store_ops(self):
        d = TraceDomain()
        d.store(64, 64)
        assert d.ops == [(OP_STORE, 1)]

    def test_clwb_and_fence(self):
        d = TraceDomain()
        d.clwb(0, 128)
        d.sfence()
        assert d.ops == [(OP_CLWB, 0, None), (OP_CLWB, 1, None), (OP_FENCE,)]

    def test_txn_markers(self):
        d = TraceDomain()
        d.txn_begin(7)
        d.txn_end(7)
        assert d.ops == [(OP_TXN_BEGIN, 7), (OP_TXN_END, 7)]

    def test_without_payload_tracking_loads_return_none(self):
        d = TraceDomain()
        assert d.load(0, 64) is None

    def test_payload_tracking_roundtrip(self):
        d = TraceDomain(track_payloads=True)
        d.store(10, 4, b"abcd")
        assert d.load(10, 4) == b"abcd"
        assert d.load(0, 2) == bytes(2)

    def test_payload_tracking_attaches_clwb_payloads(self):
        d = TraceDomain(track_payloads=True)
        d.store(0, 4, b"wxyz")
        d.clwb(0, 64)
        op = d.ops[-1]
        assert op[0] == OP_CLWB
        assert op[2][:4] == b"wxyz"

    def test_store_straddling_lines_content(self):
        d = TraceDomain(track_payloads=True)
        d.store(60, 8, b"12345678")
        assert d.load(60, 8) == b"12345678"

    def test_take_ops_detaches(self):
        d = TraceDomain()
        d.sfence()
        ops = d.take_ops()
        assert ops == [(OP_FENCE,)]
        assert d.ops == []


class TestDirectDomain:
    def make(self, scheme=Scheme.SUPERMEM):
        cfg = scheme_config(scheme, SimConfig(memory=MemoryConfig(capacity=8 << 20)))
        system = SecureMemorySystem(cfg)
        return DirectDomain(system), system

    def test_store_requires_bytes(self):
        d, _ = self.make()
        with pytest.raises(SimulationError):
            d.store(0, 64)

    def test_store_size_mismatch_rejected(self):
        d, _ = self.make()
        with pytest.raises(SimulationError):
            d.store(0, 64, b"short")

    def test_volatile_until_clwb(self):
        d, system = self.make()
        payload = bytes([5] * 64)
        d.store(0, 64, payload)
        assert d.load(0, 64) == payload  # visible to the core
        assert system.stats.get("secmem", "data_writes") == 0  # not persisted
        d.clwb(0, 64)
        assert system.stats.get("secmem", "data_writes") == 1

    def test_clwb_clean_line_is_noop(self):
        d, system = self.make()
        d.store(0, 64, bytes(64))
        d.clwb(0, 64)
        d.clwb(0, 64)  # second flush: line clean
        assert system.stats.get("secmem", "data_writes") == 1

    def test_partial_store_preserves_rest_of_line(self):
        d, _ = self.make()
        d.store(0, 64, bytes(range(64)))
        d.clwb(0, 64)
        d.store(4, 2, b"\xff\xff")
        content = d.load(0, 64)
        assert content[4:6] == b"\xff\xff"
        assert content[0:4] == bytes(range(4))

    def test_time_advances_on_flush(self):
        d, _ = self.make()
        d.store(0, 64, bytes(64))
        t0 = d.now
        d.clwb(0, 64)
        assert d.now > t0

    def test_load_falls_back_to_persistent_state(self):
        d, system = self.make()
        payload = bytes([9] * 64)
        d.store(0, 64, payload)
        d.clwb(0, 64)
        fresh = DirectDomain(system)
        assert fresh.load(0, 64) == payload

    def test_flushed_shadow_tracks_persisted_lines(self):
        d, _ = self.make()
        payload = bytes([3] * 64)
        d.store(64, 64, payload)
        d.clwb(64, 64)
        assert d.flushed_shadow == {1: payload}
