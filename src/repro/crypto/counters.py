"""Split-counter storage: one 64 B counter line per 4 KB page.

SuperMem adopts the *split counter* organisation (paper Figure 9): each
4 KB page shares a single 64-bit **major** counter and carries one 7-bit
**minor** counter per 64 B memory line. The whole bundle is
``64 + 64 * 7 = 512`` bits = 64 bytes, exactly one memory line. Two
consequences drive the design:

* *Spatial locality of counter storage* — the counters of 64 consecutive
  data lines live in **one** counter line, which is what counter write
  coalescing (CWC) exploits;
* *Overflow handling* — a minor counter saturates after
  ``2**7 - 1 = 127`` increments, at which point the page's major counter is
  bumped, all minors reset, and every line of the page is re-encrypted
  (:mod:`repro.core.reencrypt`).

The encryption counter of a line is the concatenation
``major << 7 | minor``, which is unique per write as long as the
major counter never overflows (a 64-bit major outlives NVM cell endurance,
Section 3.4.1).

A *monolithic* organisation (one private 64-bit counter per line, as in the
pre-split-counter literature) is also provided for the ablation benchmark:
it never overflows but packs only 8 counters per counter line, so CWC has
an eighth of the reach.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List

from repro.common.address import LINES_PER_PAGE
from repro.common.errors import ConfigError

#: Width of a minor counter in bits.
MINOR_BITS = 7
#: Maximum value of a 7-bit minor counter.
MINOR_COUNTER_MAX = (1 << MINOR_BITS) - 1


def _lanes(width: int, group: int, offset: int) -> int:
    """``width`` one-bits at ``offset`` in every ``group``-bit group of 512."""
    lane = ((1 << width) - 1) << offset
    return sum(lane << start for start in range(0, 8 * LINES_PER_PAGE, group))


#: The 64 packed 7-bit minors take 56 bytes.
_PACKED_MINOR_BYTES = 7 * LINES_PER_PAGE // 8
#: The low 7 bits of every byte lane.
_LANES_7 = _lanes(7, 8, 0)
#: Six halvings from 64 byte lanes to one 448-bit run. Step ``k`` joins
#: the two ``width``-bit runs of every ``2 * half``-bit group: the low one
#: stays, the high one moves down by ``half - width`` bits to sit right
#: above it. Each step is ``(shift, low mask, high mask after the shift)``.
_COMPACT_STEPS = tuple(
    (half - width, _lanes(width, 2 * half, 0), _lanes(width, 2 * half, width))
    for width, half in ((7 << k, 8 << k) for k in range(6))
)
#: The same steps undone in reverse: ``(shift, low mask, high mask before
#: the shift)``.
_SPREAD_STEPS = tuple(
    (shift, low, high << shift) for shift, low, high in reversed(_COMPACT_STEPS)
)


@dataclass
class CounterBlock:
    """The split counters of one page: a major and 64 minors.

    Attributes
    ----------
    major:
        The page's shared 64-bit major counter.
    minors:
        64 per-line minor counters (each at most ``MINOR_COUNTER_MAX``).
    """

    major: int = 0
    minors: List[int] = field(default_factory=lambda: [0] * LINES_PER_PAGE)

    def __post_init__(self) -> None:
        if len(self.minors) != LINES_PER_PAGE:
            raise ConfigError(
                f"split counter block needs {LINES_PER_PAGE} minors, "
                f"got {len(self.minors)}"
            )

    def encryption_counter(self, slot: int) -> int:
        """Combined counter encrypting line ``slot`` of the page.

        The value is unique per (page, slot, write) because the major
        counter increments whenever any minor wraps.
        """
        return (self.major << MINOR_BITS) | self.minors[slot]

    def bump(self, slot: int) -> bool:
        """Increment the minor counter of ``slot`` for a new write.

        Returns
        -------
        bool
            ``True`` when the minor overflowed. The caller must then run
            page re-encryption: :meth:`start_reencryption` gives the new
            counters and every line of the page must be re-encrypted under
            them (Section 3.4.4). The minor is left saturated until
            re-encryption resets it, so the overflow is never silently
            dropped.
        """
        if self.minors[slot] >= MINOR_COUNTER_MAX:
            return True
        self.minors[slot] += 1
        return False

    def start_reencryption(self) -> int:
        """Bump the major counter; return the old major.

        Minor counters are **not** reset here: each minor is zeroed
        individually (:meth:`reset_minor`) as its line is re-encrypted.
        This is what makes a crash mid-re-encryption recoverable — the NVM
        counter-line image still carries the *old* minors of
        not-yet-re-encrypted lines, and the RSR's old major (recorded by
        the caller) completes their decryption counters.
        """
        old_major = self.major
        self.major += 1
        return old_major

    def reset_minor(self, slot: int) -> None:
        """Zero one minor as its line is re-encrypted under the new major."""
        self.minors[slot] = 0

    def copy(self) -> "CounterBlock":
        """An independent copy (used when snapshotting durable state)."""
        return CounterBlock(major=self.major, minors=list(self.minors))

    # ------------------------------------------------------------------
    # Wire format: 8-byte little-endian major + 64 minors packed 7 bits
    # each, 64 bytes in all.
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise to the 64 B memory-line image stored in NVM."""
        major = struct.pack("<Q", self.major & ((1 << 64) - 1))
        # One byte lane per minor, low 7 bits kept, lanes compacted to
        # 7 bits each: minor ``i`` lands at bit ``7 * i``.
        packed = int.from_bytes(bytes(self.minors), "little") & _LANES_7
        for shift, low, high in _COMPACT_STEPS:
            packed = (packed & low) | ((packed >> shift) & high)
        return major + packed.to_bytes(_PACKED_MINOR_BYTES, "little")

    @classmethod
    def from_bytes(cls, data: bytes) -> "CounterBlock":
        """Parse a memory-line image produced by :meth:`to_bytes`."""
        major = struct.unpack_from("<Q", data, 0)[0]
        packed = int.from_bytes(data[8 : 8 + _PACKED_MINOR_BYTES], "little")
        for shift, low, high in _SPREAD_STEPS:
            packed = (packed & low) | ((packed << shift) & high)
        return cls(major=major, minors=list(packed.to_bytes(LINES_PER_PAGE, "little")))


@dataclass
class MonolithicCounterBlock:
    """Eight private 64-bit line counters packed in one 64 B line.

    Used only by the counter-organisation ablation: no overflow ever
    happens, but one counter line covers just 8 data lines, shrinking both
    counter-cache reach and CWC's coalescing opportunity by 8x.
    """

    LINES_PER_BLOCK = 8

    counters: List[int] = field(default_factory=lambda: [0] * 8)

    def encryption_counter(self, slot: int) -> int:
        """The private counter of line ``slot`` in this block."""
        return self.counters[slot]

    def bump(self, slot: int) -> bool:
        """Increment; a 64-bit counter never overflows in practice."""
        self.counters[slot] += 1
        return False

    def copy(self) -> "MonolithicCounterBlock":
        return MonolithicCounterBlock(counters=list(self.counters))

    def to_bytes(self) -> bytes:
        return struct.pack("<8Q", *(c & ((1 << 64) - 1) for c in self.counters))

    @classmethod
    def from_bytes(cls, data: bytes) -> "MonolithicCounterBlock":
        return cls(counters=list(struct.unpack_from("<8Q", data, 0)))
