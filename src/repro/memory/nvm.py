"""Functional NVM byte store.

The store is the ground truth of what a crash leaves behind: ciphertext
data lines and counter lines that have been *issued* from the write queue
(plus, at crash time, whatever the ADR battery flushes out of the queue —
the controller handles that).

Payloads are optional: timing-only simulations pass ``None`` payloads and
the store then only counts writes, which keeps the hot path free of
byte-string traffic. Functional runs (crash experiments, examples) pass
real 64 B images.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.address import CACHE_LINE_SIZE
from repro.common.stats import Stats

#: Image returned for never-written lines.
ZERO_LINE = bytes(CACHE_LINE_SIZE)


class NVMStore:
    """Persistent line-indexed storage.

    Line indices may exceed the data address space: the counter region is
    modelled as an index extension (see :mod:`repro.memory.layout`).
    """

    def __init__(self, stats: Optional[Stats] = None):
        self._lines: Dict[int, bytes] = {}
        self._stats = stats or Stats()
        self._vals = self._stats.values
        self._k_writes = self._stats.slot("nvm", "writes")
        self._k_reads = self._stats.slot("nvm", "reads")
        # Per-line ECC/MAC side storage: physically these bits live in the
        # NVM array next to the line, so they persist with it. Used by the
        # Osiris-style recovery (trial decryption against the check bits).
        self._macs: Dict[int, bytes] = {}

    def write_line(self, line: int, payload: Optional[bytes]) -> None:
        """Persist one line. A ``None`` payload only counts the write."""
        self._vals[self._k_writes] += 1
        if payload is not None:
            if len(payload) != CACHE_LINE_SIZE:
                raise ValueError(
                    f"NVM lines are {CACHE_LINE_SIZE} bytes, got {len(payload)}"
                )
            self._lines[line] = bytes(payload)

    def read_line(self, line: int) -> bytes:
        """Return the persistent image of a line (zeros if never written)."""
        self._vals[self._k_reads] += 1
        return self._lines.get(line, ZERO_LINE)

    def peek(self, line: int) -> bytes:
        """Stats-free image read (zeros if never written).

        Functional-only paths (plaintext shadow reads, payload forwarding)
        use this so full-fidelity runs count exactly the same "nvm" stats
        as timing-fidelity runs — the bit-identity invariant of
        tests/sim/test_fidelity.py.
        """
        return self._lines.get(line, ZERO_LINE)

    def contains(self, line: int) -> bool:
        """Whether the line has ever been written with a payload."""
        return line in self._lines

    # ------------------------------------------------------------------
    # ECC/MAC side bits (persist with their line)
    # ------------------------------------------------------------------

    def set_mac(self, line: int, mac: bytes) -> None:
        """Store the ECC/MAC check bits of ``line``."""
        self._macs[line] = bytes(mac)

    def snapshot_macs(self) -> Dict[int, bytes]:
        """Copy of all per-line check bits."""
        return dict(self._macs)

    # ------------------------------------------------------------------
    # Test / crash-experiment helpers
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[int, bytes]:
        """Copy of all stored payloads (functional lines only)."""
        return dict(self._lines)

    def __len__(self) -> int:
        return len(self._lines)
