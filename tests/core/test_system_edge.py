"""Edge-path tests for SecureMemorySystem not covered elsewhere."""

import dataclasses

import pytest

from repro.common.config import (
    CounterCacheConfig,
    CounterCacheMode,
    MemoryConfig,
    SimConfig,
)
from repro.core.recovery import RecoveredSystem
from repro.core.schemes import Scheme, scheme_config
from repro.core.system import SecureMemorySystem

PAYLOAD = bytes([0x77]) * 64


def make_system(scheme=Scheme.SUPERMEM, **overrides):
    base = SimConfig(memory=MemoryConfig(capacity=8 << 20))
    cfg = dataclasses.replace(scheme_config(scheme, base), **overrides)
    return SecureMemorySystem(cfg)


class TestCheckpointCounters:
    def test_noop_for_write_through(self):
        sys = make_system(Scheme.SUPERMEM)
        sys.persist_line(0.0, 0, payload=PAYLOAD)
        assert sys.checkpoint_counters() == 0

    def test_persists_dirty_counters_in_wb(self):
        base = SimConfig(
            memory=MemoryConfig(capacity=8 << 20),
            counter_cache=CounterCacheConfig(
                size=256 << 10,
                assoc=8,
                latency_cycles=8,
                mode=CounterCacheMode.WRITE_BACK,
                battery_backed=False,
            ),
        )
        sys = SecureMemorySystem(base)
        sys.persist_line(0.0, 0, payload=PAYLOAD)
        assert sys.checkpoint_counters() == 1
        # After the checkpoint, a crash is safe even without a battery.
        recovered = RecoveredSystem(sys.crash())
        assert recovered.plaintext_of(0) == PAYLOAD


class TestReadPathDetails:
    def test_read_forwarded_from_wq_functionally(self):
        sys = make_system()
        # Saturate bank 0 so the write stays queued, then read it back.
        for i in range(6):
            sys.persist_line(0.0, i, payload=bytes([i + 1]) * 64)
        assert sys.controller.wq.find_line(5) is not None
        assert sys.functional_read_plaintext(5) == bytes([6]) * 64

    def test_read_after_drain_still_decrypts(self):
        sys = make_system()
        sys.persist_line(0.0, 0, payload=PAYLOAD)
        sys.drain()
        assert sys.functional_read_plaintext(0) == PAYLOAD

    def test_wb_read_miss_evicting_dirty_counter_writes_back(self):
        base = SimConfig(
            memory=MemoryConfig(capacity=8 << 20),
            counter_cache=CounterCacheConfig(
                size=2 * 64,  # 2 lines: tiny, forces eviction
                assoc=2,
                latency_cycles=8,
                mode=CounterCacheMode.WRITE_BACK,
                battery_backed=True,
            ),
        )
        sys = SecureMemorySystem(base)
        # Dirty two counter lines (pages 0 and 2 -> same set).
        sys.persist_line(0.0, 0 * 64, payload=PAYLOAD)
        sys.persist_line(1.0, 2 * 64, payload=PAYLOAD)
        before = sys.stats.get("wq", "counter_appends")
        # Read from page 4: fills the set, evicting a dirty counter line.
        sys.read_line(100.0, 4 * 64)
        assert sys.stats.get("wq", "counter_appends") == before + 1


class TestMonolithicEndToEnd:
    def test_functional_roundtrip(self):
        base = scheme_config(
            Scheme.SUPERMEM, SimConfig(memory=MemoryConfig(capacity=8 << 20))
        )
        sys = SecureMemorySystem(base, counter_organization="monolithic")
        for i in range(20):
            sys.persist_line(float(i), i, payload=bytes([i + 1]) * 64)
        for i in range(20):
            assert sys.functional_read_plaintext(i) == bytes([i + 1]) * 64

    def test_no_overflow_ever(self):
        base = scheme_config(
            Scheme.SUPERMEM, SimConfig(memory=MemoryConfig(capacity=8 << 20))
        )
        sys = SecureMemorySystem(base, counter_organization="monolithic")
        for i in range(200):
            sys.persist_line(float(i), 0, payload=PAYLOAD)
        assert sys.stats.get("secmem", "page_reencryptions") == 0

    def test_reencryption_rejected(self):
        from repro.common.errors import SimulationError

        base = scheme_config(
            Scheme.SUPERMEM, SimConfig(memory=MemoryConfig(capacity=8 << 20))
        )
        sys = SecureMemorySystem(base, counter_organization="monolithic")
        with pytest.raises(SimulationError):
            sys.reencrypt_page(0.0, 0)


class TestReencryptionUnderWriteBack:
    def test_wb_overflow_reencrypts_and_reads_back(self):
        sys = make_system(Scheme.WB_IDEAL)
        sys.persist_line(0.0, 1, payload=PAYLOAD)
        for i in range(128):
            sys.persist_line(float(i), 0, payload=PAYLOAD)
        assert sys.stats.get("secmem", "page_reencryptions") == 1
        assert sys.functional_read_plaintext(0) == PAYLOAD
        assert sys.functional_read_plaintext(1) == PAYLOAD


class TestStatsHygiene:
    def test_unsec_never_touches_crypto_stats(self):
        sys = make_system(Scheme.UNSEC)
        sys.persist_line(0.0, 0, payload=PAYLOAD)
        sys.read_line(10.0, 0)
        assert sys.stats.get("cc", "accesses") == 0
        assert sys.stats.get("secmem", "counter_fetches") == 0

    def test_counter_fetch_counted_once_per_miss(self):
        sys = make_system()
        sys.persist_line(0.0, 0, payload=PAYLOAD)  # miss: fetch
        sys.persist_line(1.0, 1, payload=PAYLOAD)  # same page: hit
        assert sys.stats.get("secmem", "counter_fetches") == 1
