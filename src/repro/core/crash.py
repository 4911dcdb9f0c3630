"""Crash injection and the durable image of a power failure.

Crash experiments arm a :class:`CrashController` with a named *crash point*
(for example ``"wt-no-register-gap"``, the window of paper Figure 6 between
the counter append and the data append). Components call
:meth:`CrashController.probe` at their vulnerable points; when the armed
point fires, :class:`~repro.common.errors.CrashInjected` unwinds to the
harness, which then asks the memory system for its :class:`DurableImage` —
precisely what a real power failure leaves:

* NVM contents,
* the write queue's entries (drained by the ADR battery),
* the re-encryption status register when it is ADR-protected,
* the counter cache's dirty lines *only* under the ideal battery-backed
  write-back configuration.

Everything else (CPU caches, a write-through counter cache's contents, the
AES staging register) dies.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.config import SimConfig
from repro.common.errors import CrashInjected
from repro.core.reencrypt import RSRRecord

#: Every crash point probed anywhere in the tree, grouped by layer. The
#: fuzz harness (tests/integration/test_crash_fuzz.py) and the docs-drift
#: test both assert this registry equals the set of ``probe("...")`` call
#: sites found in the source — add a probe, add it here.
PROBE_POINTS = (
    # core/system.py — the secure-write persist path
    "after-data-append",
    "after-pair-append",
    "wt-no-register-gap",
    "reencrypt-line-done",
    # txn/transaction.py — transaction stage boundaries
    "txn-after-prepare",
    "txn-after-mutate",
    "txn-after-commit",
    "txn-after-commit-record",
)


class CrashController:
    """Arms one crash point and fires on its n-th occurrence."""

    def __init__(self) -> None:
        self._armed_point: Optional[str] = None
        self._armed_occurrence: int = 1
        self._seen: Dict[str, int] = defaultdict(int)
        self.fired: bool = False

    def arm(self, point: str, occurrence: int = 1) -> None:
        """Crash at the ``occurrence``-th hit of ``point`` *after arming*.

        The occurrence count restarts at arm time (1-based), so a point
        that fired during setup traffic does not consume the budget.
        """
        if occurrence < 1:
            raise ValueError("occurrence is 1-based")
        self._armed_point = point
        self._armed_occurrence = occurrence
        self._seen[point] = 0
        self.fired = False

    def disarm(self) -> None:
        self._armed_point = None

    def probe(self, point: str, detail: str = "") -> None:
        """Called by components at vulnerable points; may raise."""
        self._seen[point] += 1
        if (
            self._armed_point == point
            and self._seen[point] == self._armed_occurrence
        ):
            self.fired = True
            self._armed_point = None
            raise CrashInjected(point, detail)

    def occurrences(self, point: str) -> int:
        """How many times ``point`` has been probed."""
        return self._seen[point]


@dataclass
class DurableImage:
    """Everything that survives a power failure."""

    #: Persistent line images (data region and counter region) after the
    #: ADR battery drained the write queue.
    nvm: Dict[int, bytes] = field(default_factory=dict)
    #: The RSR contents, present only when a re-encryption was in flight
    #: and the RSR is ADR-protected.
    rsr: Optional[RSRRecord] = None
    #: Configuration of the crashed system (recovery needs the key,
    #: placement policy and counter geometry).
    config: Optional[SimConfig] = None
    #: Per-line ECC/MAC check bits (Osiris-style recovery only; the bits
    #: physically live in the NVM array and persist with their lines).
    macs: Dict[int, bytes] = field(default_factory=dict)
    #: Root of the integrity tree at crash time (``Scheme.SUPERMEM_BMT``
    #: only). Models the on-chip root register, which real hardware keeps
    #: in a small NVRAM/fuse cell across power loss; recovery rebuilds
    #: the tree from the persisted counter region and must reproduce it.
    tree_root: Optional[bytes] = None
    #: Cost-accounting hook: called with the line index on every
    #: :meth:`line` access. The recovery-cost model installs a
    #: :class:`~repro.core.recovery_cost.RecoveryMeter` charge here so
    #: every recovery-path read of the durable image is billed a
    #: PCM-latency-model bank read. Excluded from equality (two images
    #: with the same durable contents are the same image).
    on_read: Optional[Callable[[int], None]] = field(default=None, compare=False)

    def line(self, line_index: int) -> Optional[bytes]:
        """Persistent image of one line, or None if never written."""
        if self.on_read is not None:
            self.on_read(line_index)
        return self.nvm.get(line_index)

    def written_data_lines(self, n_data_lines: int) -> List[int]:
        """Sorted data-region line indices with a persistent image."""
        return sorted(line for line in self.nvm if line < n_data_lines)

    def written_counter_lines(self, n_data_lines: int) -> List[int]:
        """Sorted counter-region line indices with a persistent image."""
        return sorted(line for line in self.nvm if line >= n_data_lines)
