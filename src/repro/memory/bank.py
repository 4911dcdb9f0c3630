"""PCM bank and rank timing.

Each bank serves one request at a time. The timing asymmetry that drives the
whole paper lives here: a PCM cell write occupies its bank for
``tRCD + tCWD + tWR`` (361 ns with the paper's constants) while a read costs
``tRCD + tCL`` (63 ns) on a row-buffer miss and just ``tCL`` (15 ns) on a
hit. Doubling write traffic therefore roughly doubles the drain time of a
write-dominated workload — unless the extra writes land on *other* banks,
which is exactly the XBank insight.

Secondary constraints, always on:

* **row buffer** — a row is one page. Reads leave their row open; a
  following read to the same row is cheap. Writes go to the cell array and
  close the row (PCM write-through row-buffer policy).
* **tWTR** — a read issued to a bank that just finished a write waits out
  the write-to-read turnaround.
* **tFAW** — at most four row activations per rolling ``tFAW`` window
  across the rank (rarely binding next to 300 ns writes).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.common.config import TimingConfig
from repro.common.stats import Stats
from repro.obs.tracer import NULL_TRACER


class RankState:
    """Rank-level constraint state shared by all banks (tFAW window)."""

    def __init__(self, timing: TimingConfig):
        self._timing = timing
        self._activates: Deque[float] = deque(maxlen=4)

    def activate(self, start: float) -> float:
        """Register a row activation; returns the (possibly delayed) start."""
        if len(self._activates) == 4:
            earliest = self._activates[0] + self._timing.tfaw_ns
            if start < earliest:
                start = earliest
        self._activates.append(start)
        return start


class Bank:
    """One independently schedulable NVM bank.

    ``free_at`` never decreases: each service starts no earlier than it
    and ends after its start. The controller's drain scheduler relies on
    that to bound when a queued write can start.
    """

    def __init__(
        self,
        index: int,
        timing: TimingConfig,
        rank: RankState,
        stats: Stats,
        tracer=NULL_TRACER,
    ):
        self.index = index
        self._rank = rank
        self._tracer = tracer
        #: Time at which the current operation (if any) completes.
        self.free_at: float = 0.0
        #: Open row for the read row-buffer model; None = closed.
        self.open_row: Optional[int] = None
        #: Completion time of the most recent write (for tWTR).
        self.last_write_end: float = 0.0
        # Service routines run once per drained write / demand read, so
        # the derived-per-call values are hoisted once here: the
        # TimingConfig-derived service latencies (properties computing
        # sums/divisions) and the stat slots.
        self._vals = stats.values
        ns = f"bank.{index}"
        self._k_writes = stats.slot(ns, "writes")
        self._k_reads = stats.slot(ns, "reads")
        self._k_busy_ns = stats.slot(ns, "busy_ns")
        self._k_row_hits = stats.slot(ns, "row_hits")
        self._k_row_misses = stats.slot(ns, "row_misses")
        self._write_service_ns = timing.write_service_ns
        self._read_service_ns = timing.read_service_ns
        self._read_hit_service_ns = timing.read_hit_service_ns
        self._twtr_ns = timing.twtr_ns

    def earliest_start(self, now: float) -> float:
        """Earliest time a new request could begin on this bank."""
        return max(now, self.free_at)

    # ------------------------------------------------------------------
    # Service routines
    # ------------------------------------------------------------------

    def service_write(self, start: float) -> float:
        """Occupy the bank with one line write; returns completion time."""
        free_at = self.free_at
        if free_at > start:
            start = free_at
        start = self._rank.activate(start)
        end = start + self._write_service_ns
        self.free_at = end
        self.last_write_end = end
        # PCM writes bypass/close the row buffer.
        self.open_row = None
        vals = self._vals
        vals[self._k_writes] += 1
        vals[self._k_busy_ns] += end - start
        if self._tracer.enabled:
            self._tracer.bank_busy(start, end, self.index, "write")
        return end

    def service_read(self, start: float, row: int) -> Tuple[float, bool]:
        """Occupy the bank with one line read.

        Returns ``(completion_time, row_buffer_hit)``.
        """
        free_at = self.free_at
        if free_at > start:
            start = free_at
        last_write_end = self.last_write_end
        turnaround = last_write_end + self._twtr_ns
        if start < turnaround and last_write_end > 0:
            # Only delays reads that immediately chase a write on this bank.
            start = turnaround
        vals = self._vals
        hit = self.open_row == row
        if hit:
            duration = self._read_hit_service_ns
            vals[self._k_row_hits] += 1
        else:
            start = self._rank.activate(start)
            duration = self._read_service_ns
            vals[self._k_row_misses] += 1
        end = start + duration
        self.free_at = end
        self.open_row = row
        vals[self._k_reads] += 1
        vals[self._k_busy_ns] += end - start
        if self._tracer.enabled:
            self._tracer.bank_busy(start, end, self.index, "read", row_hit=hit)
        return end, hit
