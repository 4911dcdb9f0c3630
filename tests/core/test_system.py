"""Tests for the SecureMemorySystem write and read paths."""

import pytest

from repro.common.address import LINES_PER_PAGE
from repro.common.config import MemoryConfig, SimConfig
from repro.common.errors import SimulationError
from repro.core.schemes import Scheme, scheme_config
from repro.core.system import CounterStore, SecureMemorySystem

LINE_BYTES = bytes(range(64))


def make_system(scheme=Scheme.SUPERMEM, fidelity="full", **mem_kwargs):
    mem_kwargs.setdefault("capacity", 8 << 20)
    mem_kwargs.setdefault("write_queue_entries", 32)
    base = SimConfig(memory=MemoryConfig(**mem_kwargs), fidelity=fidelity)
    return SecureMemorySystem(scheme_config(scheme, base))


class TestCounterStore:
    def test_split_geometry(self):
        store = CounterStore("split")
        assert store.lines_per_block == 64
        assert store.block_key_of_line(65) == 1
        assert store.slot_of_line(65) == 1

    def test_monolithic_geometry(self):
        store = CounterStore("monolithic")
        assert store.lines_per_block == 8
        assert store.block_key_of_line(9) == 1

    def test_bump_advances_counter(self):
        store = CounterStore("split")
        before = store.counter_of_line(10)
        key, slot, overflow = store.bump(10)
        assert overflow is False
        assert store.counter_of_line(10) == before + 1

    def test_overflow_after_127_bumps(self):
        store = CounterStore("split")
        for _ in range(127):
            _, _, overflow = store.bump(0)
            assert overflow is False
        _, _, overflow = store.bump(0)
        assert overflow is True

    def test_unknown_organization_rejected(self):
        with pytest.raises(SimulationError):
            CounterStore("quantum")

    def test_serialize_roundtrip(self):
        store = CounterStore("split")
        store.bump(3)
        image = store.serialize_block(0)
        other = CounterStore("split")
        other.load_block(0, image)
        assert other.counter_of_line(3) == store.counter_of_line(3)


class TestUnsecWritePath:
    def test_no_counter_traffic(self):
        sys = make_system(Scheme.UNSEC)
        sys.persist_line(0.0, line=0, payload=LINE_BYTES)
        sys.drain()
        assert sys.stats.get("wq", "counter_appends") == 0
        assert sys.stats.get("wq", "data_appends") == 1

    def test_payload_stored_in_clear(self):
        sys = make_system(Scheme.UNSEC)
        sys.persist_line(0.0, line=0, payload=LINE_BYTES)
        sys.drain()
        assert sys.controller.nvm.read_line(0) == LINE_BYTES


class TestWriteThroughPath:
    def test_each_write_appends_pair(self):
        sys = make_system(Scheme.WT_BASE)
        for i in range(4):
            sys.persist_line(0.0, line=i, payload=LINE_BYTES)
        assert sys.stats.get("wq", "data_appends") == 4
        assert sys.stats.get("wq", "counter_appends") == 4
        assert sys.stats.get("wq", "pair_appends") == 4

    def test_payload_is_encrypted_in_nvm(self):
        sys = make_system(Scheme.SUPERMEM)
        sys.persist_line(0.0, line=0, payload=LINE_BYTES)
        sys.drain()
        stored = sys.controller.nvm.read_line(0)
        assert stored != LINE_BYTES

    def test_functional_read_roundtrip(self):
        sys = make_system(Scheme.SUPERMEM)
        sys.persist_line(0.0, line=0, payload=LINE_BYTES)
        assert sys.functional_read_plaintext(0) == LINE_BYTES

    def test_rewrite_uses_fresh_counter(self):
        sys = make_system(Scheme.SUPERMEM)
        sys.persist_line(0.0, line=0, payload=LINE_BYTES)
        first = sys.controller.read_payload(0)
        sys.persist_line(1000.0, line=0, payload=LINE_BYTES)
        second = sys.controller.read_payload(0)
        assert first != second  # same plaintext, different pad

    def test_never_written_line_reads_zero(self):
        sys = make_system(Scheme.SUPERMEM)
        assert sys.functional_read_plaintext(100) == bytes(64)

    def test_counter_writes_go_to_xbank(self):
        sys = make_system(Scheme.SUPERMEM)
        sys.persist_line(0.0, line=0, payload=LINE_BYTES)  # page 0, bank 0
        counter_entries = [e for e in sys.controller.wq if e.is_counter]
        issued_ok = sys.stats.get("wq", "counter_appends") == 1
        assert issued_ok
        if counter_entries:  # may have drained already
            assert counter_entries[0].bank == 4

    def test_counter_writes_single_bank_for_wt_base(self):
        sys = make_system(Scheme.WT_BASE, write_queue_entries=64)
        for page in range(3):
            sys.persist_line(0.0, line=page * LINES_PER_PAGE, payload=LINE_BYTES)
        banks = {e.bank for e in sys.controller.wq if e.is_counter}
        assert banks <= {7}

    def test_cwc_reduces_counter_appends_in_queue(self):
        sys = make_system(Scheme.SUPERMEM, write_queue_entries=64)
        # 8 lines of the same page: 8 counter appends, 7 coalesced
        for i in range(8):
            sys.persist_line(0.0, line=i, payload=LINE_BYTES)
        assert sys.stats.get("wq", "cwc_coalesced") >= 6
        counter_entries = [e for e in sys.controller.wq if e.is_counter]
        assert len(counter_entries) <= 2

    def test_timing_only_mode_stores_no_payloads(self):
        sys = make_system(Scheme.SUPERMEM, fidelity="timing")
        sys.persist_line(0.0, line=0)
        sys.drain()
        assert not sys.controller.nvm.contains(0)
        # The data line and its counter line both reached NVM.
        assert sys.stats.get("nvm", "writes") == 2


class TestWriteBackPath:
    def test_data_only_appends(self):
        sys = make_system(Scheme.WB_IDEAL)
        for i in range(4):
            sys.persist_line(0.0, line=i, payload=LINE_BYTES)
        assert sys.stats.get("wq", "data_appends") == 4
        assert sys.stats.get("wq", "counter_appends") == 0

    def test_functional_roundtrip(self):
        sys = make_system(Scheme.WB_IDEAL)
        sys.persist_line(0.0, line=0, payload=LINE_BYTES)
        assert sys.functional_read_plaintext(0) == LINE_BYTES

    def test_dirty_eviction_emits_counter_write(self):
        # Counter cache with 2 lines only: third distinct page evicts.
        import dataclasses

        from repro.common.config import CounterCacheConfig, CounterCacheMode

        base = SimConfig(
            memory=MemoryConfig(capacity=8 << 20),
            counter_cache=CounterCacheConfig(
                size=2 * 64,
                assoc=2,
                latency_cycles=8,
                mode=CounterCacheMode.WRITE_BACK,
                battery_backed=True,
            ),
        )
        sys = SecureMemorySystem(base)
        for page in range(3):
            sys.persist_line(0.0, line=page * LINES_PER_PAGE, payload=LINE_BYTES)
        assert sys.stats.get("wq", "counter_appends") == 1


class TestReadPath:
    def test_counter_cache_hit_after_write(self):
        sys = make_system(Scheme.SUPERMEM)
        sys.persist_line(0.0, line=0, payload=LINE_BYTES)
        sys.read_line(10_000.0, line=1)  # same page counter
        assert sys.stats.get("cc", "read_accesses") == 1
        assert sys.stats.get("cc", "read_hits") == 1

    def test_counter_cache_miss_on_cold_page(self):
        sys = make_system(Scheme.SUPERMEM)
        sys.read_line(0.0, line=0)
        assert sys.stats.get("cc", "read_accesses") == 1
        assert sys.stats.get("cc", "read_hits") == 0

    def test_miss_costs_more_than_hit(self):
        sys = make_system(Scheme.SUPERMEM)
        cold_latency = sys.read_line(0.0, line=0) - 0.0
        warm_latency = sys.read_line(10_000.0, line=2) - 10_000.0
        assert warm_latency < cold_latency

    def test_unsec_read_has_no_counter_machinery(self):
        sys = make_system(Scheme.UNSEC)
        sys.read_line(0.0, line=0)
        assert sys.stats.get("cc", "accesses") == 0


class TestLifecycle:
    def test_use_after_crash_raises(self):
        sys = make_system(Scheme.SUPERMEM)
        sys.persist_line(0.0, line=0, payload=LINE_BYTES)
        sys.crash()
        with pytest.raises(SimulationError):
            sys.persist_line(1.0, line=1, payload=LINE_BYTES)

    def test_orderly_shutdown_persists_wb_counters(self):
        sys = make_system(Scheme.WB_IDEAL)
        sys.persist_line(0.0, line=0, payload=LINE_BYTES)
        image = sys.orderly_shutdown()
        ctr_line = sys.amap.n_lines + 0
        assert ctr_line in image.nvm
