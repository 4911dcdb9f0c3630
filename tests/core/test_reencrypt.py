"""Tests for minor-counter overflow, page re-encryption, and RSR recovery."""

import dataclasses

import pytest

from repro.common.address import LINES_PER_PAGE
from repro.common.config import MemoryConfig, SimConfig
from repro.common.errors import CrashInjected
from repro.core.recovery import RecoveredSystem
from repro.core.reencrypt import RSRRecord
from repro.core.schemes import Scheme, scheme_config
from repro.core.system import SecureMemorySystem

PAYLOAD = bytes([0xAB] * 64)


def make_system(**overrides):
    base = SimConfig(memory=MemoryConfig(capacity=8 << 20))
    cfg = dataclasses.replace(scheme_config(Scheme.SUPERMEM, base), **overrides)
    return SecureMemorySystem(cfg)


class TestRSRRecord:
    def test_serialises_to_20_bytes(self):
        """The paper's battery-cost argument: the RSR is 20 bytes."""
        rsr = RSRRecord(page=1, old_major=2)
        assert RSRRecord.SIZE_BYTES == 20
        assert len(rsr.to_bytes()) == 20

    def test_roundtrip(self):
        rsr = RSRRecord(page=77, old_major=123456)
        rsr.mark_done(0)
        rsr.mark_done(63)
        parsed = RSRRecord.from_bytes(rsr.to_bytes())
        assert parsed.page == 77
        assert parsed.old_major == 123456
        assert parsed.done == rsr.done

    def test_pending_slots(self):
        rsr = RSRRecord(page=0, old_major=0)
        for slot in range(10):
            rsr.mark_done(slot)
        assert rsr.pending_slots() == list(range(10, LINES_PER_PAGE))
        assert not rsr.complete

    def test_complete(self):
        rsr = RSRRecord(page=0, old_major=0)
        for slot in range(LINES_PER_PAGE):
            rsr.mark_done(slot)
        assert rsr.complete


class TestOverflowTriggersReencryption:
    def test_128th_write_reencrypts(self):
        sys = make_system()
        for i in range(127):
            sys.persist_line(float(i), line=0, payload=PAYLOAD)
        assert sys.stats.get("secmem", "page_reencryptions") == 0
        sys.persist_line(1000.0, line=0, payload=PAYLOAD)
        assert sys.stats.get("secmem", "page_reencryptions") == 1

    def test_content_survives_reencryption(self):
        sys = make_system()
        # put distinct content on several lines of page 0
        contents = {line: bytes([line] * 64) for line in range(1, 5)}
        for line, payload in contents.items():
            sys.persist_line(0.0, line=line, payload=payload)
        # force overflow on line 0
        for i in range(128):
            sys.persist_line(float(i), line=0, payload=PAYLOAD)
        for line, payload in contents.items():
            assert sys.functional_read_plaintext(line) == payload
        assert sys.functional_read_plaintext(0) == PAYLOAD

    def test_major_counter_advances(self):
        sys = make_system()
        for i in range(128):
            sys.persist_line(float(i), line=0, payload=PAYLOAD)
        assert sys.counters.block(0).major == 1
        assert sys.counters.block(0).minors[0] == 1  # re-bumped after reset

    def test_crash_after_reencryption_is_consistent(self):
        sys = make_system()
        contents = {line: bytes([line + 1] * 64) for line in range(1, 4)}
        for line, payload in contents.items():
            sys.persist_line(0.0, line=line, payload=payload)
        for i in range(128):
            sys.persist_line(float(i), line=0, payload=PAYLOAD)
        image = sys.crash()
        recovered = RecoveredSystem(image)
        shadow = dict(contents)
        shadow[0] = PAYLOAD
        assert recovered.audit_against_shadow(shadow) == {}


class TestCrashDuringReencryption:
    def drive_to_mid_reencryption_crash(self, rsr_adr: bool, crash_slot: int = 20):
        sys = make_system(rsr_adr=rsr_adr)
        contents = {line: bytes([(line % 250) + 1] * 64) for line in range(64)}
        for line, payload in contents.items():
            sys.persist_line(0.0, line=line, payload=payload)
        for i in range(126):  # line 0 now at minor 127
            sys.persist_line(float(i), line=0, payload=PAYLOAD)
        contents[0] = PAYLOAD
        sys.crash_ctl.arm("reencrypt-line-done", occurrence=crash_slot)
        with pytest.raises(CrashInjected):
            sys.persist_line(10**6, line=0, payload=PAYLOAD)
        return sys.crash(), contents

    def test_rsr_present_in_image_when_adr_protected(self):
        image, _ = self.drive_to_mid_reencryption_crash(rsr_adr=True)
        assert image.rsr is not None
        assert image.rsr.page == 0
        assert 0 < len(image.rsr.pending_slots()) < LINES_PER_PAGE

    def test_resume_completes_the_page(self):
        image, contents = self.drive_to_mid_reencryption_crash(rsr_adr=True)
        recovered = RecoveredSystem(image)
        resumed = recovered.resume_reencryption()
        assert resumed == len(range(20, 64))
        assert recovered.audit_against_shadow(contents) == {}
        assert recovered.image.rsr is None

    def test_pending_lines_readable_even_before_resume(self):
        """The RSR lets recovery decrypt pending lines with the old major."""
        image, contents = self.drive_to_mid_reencryption_crash(rsr_adr=True)
        recovered = RecoveredSystem(image)
        assert recovered.audit_against_shadow(contents) == {}

    def test_without_adr_rsr_pending_lines_are_garbage(self):
        """The broken baseline of Section 3.4.4: RSR lost on crash."""
        image, contents = self.drive_to_mid_reencryption_crash(rsr_adr=False)
        assert image.rsr is None
        recovered = RecoveredSystem(image)
        mismatches = recovered.audit_against_shadow(contents)
        assert mismatches, "losing the RSR must corrupt pending lines"

    def test_crash_at_various_slots_recoverable(self):
        for slot in (1, 5, 33, 63):
            image, contents = self.drive_to_mid_reencryption_crash(
                rsr_adr=True, crash_slot=slot
            )
            recovered = RecoveredSystem(image)
            recovered.resume_reencryption()
            assert recovered.audit_against_shadow(contents) == {}
