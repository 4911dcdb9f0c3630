"""Crash-consistency scenarios (paper Figures 4 and 6, Section 3.2).

These tests drive the *functional* memory system, inject power failures at
the architecturally interesting instants, and check whether the durable
state decrypts to a consistent value. They are the executable version of
the paper's motivation:

* Figure 4a/4b — persisting only one of (data, counter) makes the line
  undecryptable;
* Figure 6 — a write-through counter cache *without* the staging register
  has a crash window between the counter append and the data append;
* Figure 7 — with the register, data+counter enter the ADR domain
  atomically, so every crash leaves every line decryptable.
"""

import dataclasses

import pytest

from repro.common.config import (
    CounterCacheConfig,
    CounterCacheMode,
    MemoryConfig,
    SimConfig,
)
from repro.common.errors import CrashInjected
from repro.core.crash import CrashController
from repro.core.recovery import RecoveredSystem
from repro.core.schemes import Scheme, scheme_config
from repro.core.system import SecureMemorySystem

V1 = bytes([0x11] * 64)
V2 = bytes([0x22] * 64)
V3 = bytes([0x33] * 64)


def make_system(scheme=Scheme.SUPERMEM, **overrides):
    base = SimConfig(memory=MemoryConfig(capacity=8 << 20))
    cfg = dataclasses.replace(scheme_config(scheme, base), **overrides)
    return SecureMemorySystem(cfg)


class TestSuperMemAtomicity:
    def test_crash_after_persist_recovers_new_value(self):
        sys = make_system()
        sys.persist_line(0.0, line=0, payload=V1)
        image = sys.crash()
        recovered = RecoveredSystem(image)
        assert recovered.plaintext_of(0) == V1

    def test_crash_between_writes_recovers_prefix(self):
        sys = make_system()
        sys.persist_line(0.0, line=0, payload=V1)
        sys.persist_line(10.0, line=1, payload=V2)
        image = sys.crash()
        recovered = RecoveredSystem(image)
        assert recovered.plaintext_of(0) == V1
        assert recovered.plaintext_of(1) == V2
        assert recovered.plaintext_of(2) == bytes(64)  # never written

    def test_overwrite_then_crash_recovers_latest(self):
        sys = make_system()
        sys.persist_line(0.0, line=0, payload=V1)
        sys.persist_line(10.0, line=0, payload=V2)
        image = sys.crash()
        assert RecoveredSystem(image).audit_against_shadow({0: V2}) == {}

    @pytest.mark.parametrize("crash_at", range(1, 9))
    def test_every_crash_point_is_consistent(self, crash_at):
        """Property of Figure 7: wherever the crash lands, every line's
        durable image decrypts to one of its written versions."""
        sys = make_system()
        sys.crash_ctl.arm("after-pair-append", occurrence=crash_at)
        versions = {}
        try:
            for i, payload in enumerate([V1, V2, V3] * 3):
                line = i % 4
                # Record the attempt first: an in-flight write may or may
                # not be durable when the crash lands.
                versions.setdefault(line, [bytes(64)]).append(payload)
                sys.persist_line(float(i), line=line, payload=payload)
        except CrashInjected:
            pass
        image = sys.crash()
        recovered = RecoveredSystem(image)
        for line in range(4):
            allowed = versions.get(line, [bytes(64)])
            assert recovered.plaintext_of(line) in allowed


class TestBrokenBaselineNoRegister:
    """Figure 6: write-through without the staging register."""

    def test_gap_crash_makes_line_undecryptable(self):
        sys = make_system(atomicity_register=False)
        sys.persist_line(0.0, line=0, payload=V1)  # completes fine
        sys.drain()
        # Arm the window between counter append and data append of the
        # next write to line 0 (occurrence counting restarts at arm).
        sys.crash_ctl.arm("wt-no-register-gap", occurrence=1)
        with pytest.raises(CrashInjected):
            sys.persist_line(100.0, line=0, payload=V2)
        image = sys.crash()
        recovered = RecoveredSystem(image)
        got = recovered.plaintext_of(0)
        # The new counter is durable but the new data is not: the old
        # ciphertext no longer decrypts, and the new value never arrived.
        assert got != V1 and got != V2

    def test_no_crash_no_corruption(self):
        """The broken design is only broken *across* crashes."""
        sys = make_system(atomicity_register=False)
        sys.persist_line(0.0, line=0, payload=V1)
        sys.persist_line(10.0, line=0, payload=V2)
        image = sys.crash()
        assert RecoveredSystem(image).plaintext_of(0) == V2


class TestWriteBackWithoutBattery:
    """Figure 4b: data persisted, counter still in a volatile WB cache."""

    def make_wb(self, battery: bool):
        base = SimConfig(
            memory=MemoryConfig(capacity=8 << 20),
            counter_cache=CounterCacheConfig(
                size=256 << 10,
                assoc=8,
                latency_cycles=8,
                mode=CounterCacheMode.WRITE_BACK,
                battery_backed=battery,
            ),
        )
        return SecureMemorySystem(base)

    def test_crash_loses_dirty_counters(self):
        sys = self.make_wb(battery=False)
        sys.persist_line(0.0, line=0, payload=V1)
        image = sys.crash()
        recovered = RecoveredSystem(image)
        # Data reached NVM (via ADR) but its counter died in SRAM: the
        # stored counter is stale (zero) and decryption yields garbage.
        assert recovered.plaintext_of(0) != V1

    def test_battery_flush_saves_counters(self):
        sys = self.make_wb(battery=True)
        sys.persist_line(0.0, line=0, payload=V1)
        image = sys.crash()
        assert RecoveredSystem(image).plaintext_of(0) == V1

    def test_orderly_shutdown_is_always_safe(self):
        sys = self.make_wb(battery=False)
        sys.persist_line(0.0, line=0, payload=V1)
        image = sys.orderly_shutdown()
        assert RecoveredSystem(image).plaintext_of(0) == V1


class TestUnsecCrash:
    def test_unencrypted_lines_need_no_counters(self):
        sys = make_system(Scheme.UNSEC)
        sys.persist_line(0.0, line=0, payload=V1)
        image = sys.crash()
        assert RecoveredSystem(image).plaintext_of(0) == V1


class TestAdrDomain:
    def test_queued_writes_survive(self):
        """Entries still sitting in the write queue are durable (ADR)."""
        sys = make_system()
        # saturate one bank so appends stay queued
        for i in range(6):
            sys.persist_line(0.0, line=i, payload=V1)
        assert len(sys.controller.wq) > 0
        image = sys.crash()
        recovered = RecoveredSystem(image)
        for i in range(6):
            assert recovered.plaintext_of(i) == V1


class TestCrashController:
    """Only hits of the armed point after :meth:`CrashController.arm` count."""

    def test_other_points_never_count(self):
        ctl = CrashController()
        ctl.arm("after-pair-append", occurrence=2)
        for _ in range(5):
            ctl.probe("after-data-append")
            ctl.probe("txn-after-commit")
        ctl.probe("after-pair-append")
        assert not ctl.fired
        with pytest.raises(CrashInjected):
            ctl.probe("after-pair-append")
        assert ctl.fired

    def test_hits_before_arming_never_count(self):
        ctl = CrashController()
        for _ in range(3):
            ctl.probe("after-pair-append")
        ctl.arm("after-pair-append", occurrence=1)
        assert not ctl.fired
        with pytest.raises(CrashInjected, match="after-pair-append"):
            ctl.probe("after-pair-append", detail="first after arming")

    def test_rearming_restarts_the_count_and_fires_once(self):
        ctl = CrashController()
        ctl.arm("after-data-append", occurrence=2)
        ctl.probe("after-data-append")
        ctl.arm("after-data-append", occurrence=2)
        ctl.probe("after-data-append")
        with pytest.raises(CrashInjected):
            ctl.probe("after-data-append")
        # Disarmed once fired: later hits pass.
        ctl.probe("after-data-append")
        assert ctl.fired

    def test_unarmed_probes_pass(self):
        ctl = CrashController()
        for point in ("after-data-append", "txn-after-prepare"):
            ctl.probe(point)
        assert not ctl.fired
