#!/usr/bin/env python3
"""Minor-counter overflow, page re-encryption, and RSR crash recovery.

Split counters give each line a 7-bit minor counter: the 128th write to
one line overflows it, forcing the whole page to be re-encrypted under a
bumped major counter (paper Section 3.4.4). This example:

1. hammers one line until the overflow triggers re-encryption and shows
   that every other line of the page still decrypts;
2. crashes in the middle of a re-encryption and shows the ADR-protected
   20-byte RSR lets recovery finish the job;
3. repeats the crash with the RSR unprotected — the not-yet-re-encrypted
   lines become garbage, which is exactly why SuperMem puts the RSR in
   the ADR domain.

Run::

    python examples/page_reencryption.py
"""

import dataclasses

from repro import (
    CrashInjected,
    RecoveredSystem,
    Scheme,
    SecureMemorySystem,
    scheme_config,
)

HOT_LINE = 0  # line we hammer
# Neighbour lines spread across the page, so a crash 20/64 lines into the
# re-encryption leaves some of them pending (slots > 20).
NEIGHBOURS = {line: bytes([line]) * 64 for line in (1, 2, 3, 30, 45, 60)}
HOT_PAYLOAD = bytes([0xEE]) * 64


def fresh(rsr_adr: bool) -> SecureMemorySystem:
    cfg = dataclasses.replace(scheme_config(Scheme.SUPERMEM), rsr_adr=rsr_adr)
    return SecureMemorySystem(cfg)


def demo_overflow() -> None:
    print("[1] 128 writes to one line trigger page re-encryption")
    system = fresh(rsr_adr=True)
    for line, payload in NEIGHBOURS.items():
        system.persist_line(0.0, line, payload=payload)
    for i in range(128):
        system.persist_line(float(i), HOT_LINE, payload=HOT_PAYLOAD)
    reenc = system.stats.get("secmem", "page_reencryptions")
    major = system.counters.block(0).major
    print(f"  page re-encryptions: {reenc}; page 0 major counter: {major}")
    ok = all(
        system.functional_read_plaintext(line) == payload
        for line, payload in NEIGHBOURS.items()
    )
    print(f"  all neighbour lines still decrypt correctly: {ok}")


def demo_crash_with_rsr(rsr_adr: bool) -> None:
    tag = "ADR-protected RSR" if rsr_adr else "UNPROTECTED RSR (broken baseline)"
    print(f"\n[{2 if rsr_adr else 3}] crash mid-re-encryption, {tag}")
    system = fresh(rsr_adr=rsr_adr)
    for line, payload in NEIGHBOURS.items():
        system.persist_line(0.0, line, payload=payload)
    for i in range(127):
        system.persist_line(float(i), HOT_LINE, payload=HOT_PAYLOAD)
    # The next write overflows; crash after 20 of 64 lines re-encrypted.
    system.crash_ctl.arm("reencrypt-line-done", occurrence=20)
    try:
        system.persist_line(10**6, HOT_LINE, payload=HOT_PAYLOAD)
    except CrashInjected:
        print("  power failed 20/64 lines into the re-encryption")
    image = system.crash()
    recovered = RecoveredSystem(image)
    if image.rsr is not None:
        pending = len(image.rsr.pending_slots())
        print(f"  RSR survived: page {image.rsr.page}, {pending} lines pending")
        resumed = recovered.resume_reencryption()
        print(f"  recovery resumed and re-encrypted {resumed} lines")
    else:
        print("  RSR lost with the power")
    shadow = dict(NEIGHBOURS)
    shadow[HOT_LINE] = HOT_PAYLOAD
    mismatches = recovered.audit_against_shadow(shadow)
    if mismatches:
        print(f"  INCONSISTENT: {len(mismatches)} line(s) decrypt to garbage")
    else:
        print("  every line decrypts to its expected value")


def main() -> None:
    print("Split-counter overflow and the re-encryption status register\n")
    demo_overflow()
    demo_crash_with_rsr(rsr_adr=True)
    demo_crash_with_rsr(rsr_adr=False)
    print(
        "\nThe RSR is 20 bytes — page number, old major counter, 64 done\n"
        "bits — so keeping it in the ADR domain costs almost nothing,\n"
        "while losing it corrupts every not-yet-re-encrypted line."
    )


if __name__ == "__main__":
    main()
