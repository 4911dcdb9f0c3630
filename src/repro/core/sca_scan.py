"""SCA-style full counter-region scan recovery (Section 6 related work).

Zuo et al.'s SCA keeps a write-back counter cache without strict
persistence: a crash loses the dirty counter blocks, and — unlike Osiris —
nothing in the array records *which* pages' counters were stale. The only
safe recovery is to walk the **entire counter region**, reading and
verifying every counter line before normal operation resumes. That walk
is what the paper's Section 6 holds against scan-based designs: its cost
is one read + one verification per page of installed memory, so recovery
time grows linearly with capacity whether or not the crash left anything
dirty.

:class:`ScaScanRecovery` performs that walk over a
:class:`~repro.core.crash.DurableImage` and prices it with one
:meth:`~repro.core.recovery_cost.RecoveryMeter.scan_counter_lines` call:
a read plus an AES verification per counter line, whatever the line
holds. The scan itself recovers no data — the transaction-log
replay afterwards does, exactly as on the SuperMem path — it is pure,
capacity-proportional latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.address import AddressMap
from repro.common.errors import SimulationError
from repro.core.crash import DurableImage


@dataclass
class ScaScanReport:
    """Outcome of a full counter-region scan."""

    #: Counter-region lines walked — always ``n_pages`` of the capacity.
    scanned_lines: int = 0


class ScaScanRecovery:
    """Walk every counter line of the image's counter region."""

    def __init__(self, image: DurableImage, meter=None):
        if image.config is None:
            raise SimulationError("durable image carries no configuration")
        if not image.config.encrypted:
            raise SimulationError("counter-region scan on an unencrypted image")
        self.meter = meter
        self.amap: AddressMap = image.config.address_map()

    def recover(self) -> ScaScanReport:
        """Scan all ``n_pages`` counter lines; one read + one AES verify each.

        The scan must touch every counter line of the configured capacity
        (never-written ones included — recovery cannot know a page is
        untouched without looking), which is precisely why this path
        scales with memory size.
        """
        n_pages = self.amap.n_pages
        if self.meter is not None:
            self.meter.scan_counter_lines(self.amap.n_lines, n_pages)
        return ScaScanReport(scanned_lines=n_pages)
