"""Page re-encryption and the re-encryption status register (Section 3.4.4).

When a line's 7-bit minor counter saturates, the page's major counter is
bumped, all minors reset, and every line of the page must be re-encrypted
under the fresh counters. The memory controller tracks progress in a
20-byte **re-encryption status register** (RSR): the page number, the old
major counter, and one done bit per line.

Crash consistency: SuperMem puts the RSR inside the ADR domain, so a power
failure mid-re-encryption persists it. On recovery the system reads the
RSR, decrypts not-yet-re-encrypted lines with the *old* major counter and
their saturated minors, and finishes the job. Without ADR protection
(``rsr_adr=False``, the broken baseline), the RSR is lost and the
non-re-encrypted lines of the page become undecryptable — the
inconsistency the paper warns about.

The RSR serialises to exactly 20 bytes (32-bit page number + 64-bit old
major + 64 done bits), matching the paper's battery-cost argument.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List

from repro.common.address import LINES_PER_PAGE
from repro.common.errors import SimulationError


@dataclass
class RSRRecord:
    """The re-encryption status of one in-flight page re-encryption."""

    page: int
    old_major: int
    done: List[bool] = field(default_factory=lambda: [False] * LINES_PER_PAGE)

    def __post_init__(self) -> None:
        if len(self.done) != LINES_PER_PAGE:
            raise SimulationError(
                f"RSR needs {LINES_PER_PAGE} done bits, got {len(self.done)}"
            )
        if not 0 <= self.page < (1 << 32):
            raise SimulationError("RSR page number must fit in 32 bits")

    def mark_done(self, slot: int) -> None:
        self.done[slot] = True

    def pending_slots(self) -> List[int]:
        """Line slots still encrypted under the old counters."""
        return [slot for slot, done in enumerate(self.done) if not done]

    # ------------------------------------------------------------------
    # 20-byte wire format (the paper's battery-cost accounting)
    # ------------------------------------------------------------------

    SIZE_BYTES = 20

    def to_bytes(self) -> bytes:
        bits = 0
        for slot, done in enumerate(self.done):
            if done:
                bits |= 1 << slot
        return struct.pack("<IQQ", self.page, self.old_major & ((1 << 64) - 1), bits)

    @classmethod
    def from_bytes(cls, data: bytes) -> "RSRRecord":
        page, old_major, bits = struct.unpack_from("<IQQ", data, 0)
        done = [bool(bits & (1 << slot)) for slot in range(LINES_PER_PAGE)]
        return cls(page=page, old_major=old_major, done=done)

    def copy(self) -> "RSRRecord":
        return RSRRecord(page=self.page, old_major=self.old_major, done=list(self.done))
