"""The memory controller's ADR-protected write queue with CWC.

Every entry carries the one-bit **counter/data flag** the paper adds
(Section 3.4.3) so counter-write-coalescing scans touch only counter
entries. The queue is FIFO-ordered; the drain scheduler in
:mod:`repro.memory.controller` may issue out of order across banks but
preserves order per line (same line => same bank => FIFO tie-break).

Counter write coalescing (CWC): when a counter line evicted from the
write-through counter cache arrives and an *unissued* counter entry with
the same line index is already queued, the older entry is **removed** and
the new one appended at the tail. Removing (rather than merging the new
content into the older entry's slot) deliberately delays the counter write,
maximising the chance that yet more counter updates coalesce before it
drains — the paper's Figure 10-12 argument. The newer entry always carries
a superset of the older one's updates because both are images of the same
write-through-cached counter line.

The alternative *merge-in-place* policy (update the older entry where it
sits) is implemented for the ablation benchmark.

Durability: the queue sits inside the ADR domain — on a power failure the
battery drains every entry to NVM. ``adr_flush_order()`` exposes the
entries for crash modelling.

Implementation: the FIFO is an insertion-ordered dict keyed by each
entry's monotonic ``seq`` (Python dicts preserve insertion order, and
deleting a key does not disturb it), plus two per-line indices kept in
lockstep — ``line -> [entries in FIFO order]`` for read forwarding and
``line -> [counter entries in FIFO order]`` for CWC. Appends, removals,
:meth:`find_line`, and :meth:`_find_counter` are all O(1) amortised
(per-line buckets hold at most a handful of entries), replacing the
whole-queue linear scans the append/read/drain hot paths used to pay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.common.errors import SimulationError
from repro.common.stats import Stats
from repro.obs.tracer import NULL_TRACER

#: CWC policies.
CWC_REMOVE_OLDER = "remove-older"
CWC_MERGE_IN_PLACE = "merge-in-place"


@dataclass(slots=True)
class WQEntry:
    """One queued line write.

    ``slots=True``: hundreds of thousands of entries are constructed and
    field-scanned per run, so slot storage (no per-entry ``__dict__``)
    measurably trims both allocation and attribute access.
    """

    line: int
    bank: int
    row: int
    is_counter: bool
    enq_time: float
    payload: Optional[bytes] = None
    core: int = 0
    #: Monotonic sequence number preserving global append order.
    seq: int = field(default=0)


class WriteQueue:
    """Bounded FIFO of pending NVM writes with optional CWC."""

    def __init__(
        self,
        capacity: int,
        stats: Stats,
        cwc_enabled: bool = False,
        cwc_policy: str = CWC_REMOVE_OLDER,
        tracer=NULL_TRACER,
    ):
        if cwc_policy not in (CWC_REMOVE_OLDER, CWC_MERGE_IN_PLACE):
            raise SimulationError(f"unknown CWC policy {cwc_policy!r}")
        self.capacity = capacity
        self.cwc_enabled = cwc_enabled
        self.cwc_policy = cwc_policy
        self._stats = stats
        self._tracer = tracer
        #: FIFO store: seq -> entry, in append (insertion) order.
        self._entries: Dict[int, WQEntry] = {}
        #: line -> queued entries for that line, FIFO order (read forwarding).
        self._by_line: Dict[int, List[WQEntry]] = {}
        #: line -> queued *counter* entries for that line, FIFO order (CWC).
        self._counters_by_line: Dict[int, List[WQEntry]] = {}
        #: bank -> seq-ordered {seq: entry} of queued *data* writes, and the
        #: same for *counter* writes. The drain scheduler picks per bucket
        #: (the FIFO-first entry, or a short walk of a held-back counter
        #: bucket; see ``MemoryController._best_candidate``), so these
        #: shrink its scan from O(queue) to O(banks).
        self.data_by_bank: Dict[int, Dict[int, WQEntry]] = {}
        self.counters_by_bank: Dict[int, Dict[int, WQEntry]] = {}
        self._seq = 0
        #: Bumped on every append/removal; the drain scheduler uses it to
        #: reuse its last candidate scan while the queue is unchanged.
        self.version = 0
        # Prebuilt (namespace, counter) keys bumped directly in the shared
        # Stats.raw() dict — exact inc()/maximize() semantics without a
        # method call per append (the append path is per-CLWB hot).
        self._vals = stats.raw()
        self._k_appends = ("wq", "appends")
        self._k_counter_appends = ("wq", "counter_appends")
        self._k_data_appends = ("wq", "data_appends")
        self._k_peak = ("wq", "peak_occupancy")
        self._k_cwc = ("wq", "cwc_coalesced")

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def has_space(self, n: int = 1) -> bool:
        return len(self._entries) + n <= self.capacity

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------

    def _index(self, entry: WQEntry) -> None:
        # get-then-branch instead of setdefault: setdefault allocates a
        # fresh empty container on *every* call just in case, and this
        # runs once per append (the hottest queue path).
        line = entry.line
        bucket = self._by_line.get(line)
        if bucket is None:
            self._by_line[line] = [entry]
        else:
            bucket.append(entry)
        if entry.is_counter:
            bucket = self._counters_by_line.get(line)
            if bucket is None:
                self._counters_by_line[line] = [entry]
            else:
                bucket.append(entry)
            bank_bucket = self.counters_by_bank.get(entry.bank)
            if bank_bucket is None:
                self.counters_by_bank[entry.bank] = {entry.seq: entry}
            else:
                bank_bucket[entry.seq] = entry
        else:
            bank_bucket = self.data_by_bank.get(entry.bank)
            if bank_bucket is None:
                self.data_by_bank[entry.bank] = {entry.seq: entry}
            else:
                bank_bucket[entry.seq] = entry

    def _unindex(self, entry: WQEntry) -> None:
        bucket = self._by_line[entry.line]
        bucket.remove(entry)
        if not bucket:
            del self._by_line[entry.line]
        if entry.is_counter:
            bucket = self._counters_by_line[entry.line]
            bucket.remove(entry)
            if not bucket:
                del self._counters_by_line[entry.line]
            bank_bucket = self.counters_by_bank[entry.bank]
            del bank_bucket[entry.seq]
            if not bank_bucket:
                del self.counters_by_bank[entry.bank]
        else:
            bank_bucket = self.data_by_bank[entry.bank]
            del bank_bucket[entry.seq]
            if not bank_bucket:
                del self.data_by_bank[entry.bank]

    def _delete(self, entry: WQEntry) -> None:
        del self._entries[entry.seq]
        self._unindex(entry)
        self.version += 1

    # ------------------------------------------------------------------
    # Append path (with CWC)
    # ------------------------------------------------------------------

    def append(self, entry: WQEntry) -> bool:
        """Append one entry; returns True if CWC coalesced an older one.

        The caller must have ensured space (after accounting for the
        possible removal — use :meth:`would_coalesce` first when the queue
        is full).
        """
        vals = self._vals
        coalesced = False
        if self.cwc_enabled and entry.is_counter:
            older = self._find_counter(entry.line)
            if older is not None:
                coalesced = True
                vals[self._k_cwc] += 1
                if self._tracer.enabled:
                    self._tracer.wq_coalesce(
                        entry.enq_time, entry.line, self.cwc_policy
                    )
                if self.cwc_policy == CWC_REMOVE_OLDER:
                    self._delete(older)
                else:
                    # merge-in-place: refresh the older slot and stop.
                    older.payload = entry.payload
                    self._count_append(entry)
                    self.version += 1
                    return True
        if self.full:
            raise SimulationError("append to full write queue")
        entry.seq = self._seq
        self._seq += 1
        self.version += 1
        self._entries[entry.seq] = entry
        self._index(entry)
        self._count_append(entry)
        occupancy = len(self._entries)
        if occupancy > vals[self._k_peak]:
            vals[self._k_peak] = occupancy
        return coalesced

    def _count_append(self, entry: WQEntry) -> None:
        vals = self._vals
        vals[self._k_appends] += 1
        if entry.is_counter:
            vals[self._k_counter_appends] += 1
        else:
            vals[self._k_data_appends] += 1

    def would_coalesce(self, line: int) -> bool:
        """Whether appending a counter write to ``line`` frees a slot."""
        return self.cwc_enabled and self._find_counter(line) is not None

    def _find_counter(self, line: int) -> Optional[WQEntry]:
        # The flag bit makes this an O(1) index lookup; the oldest queued
        # counter entry for the line (FIFO order) is the coalesce target.
        bucket = self._counters_by_line.get(line)
        return bucket[0] if bucket else None

    # ------------------------------------------------------------------
    # Drain side
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[WQEntry]:
        return iter(self._entries.values())

    def remove(self, entry: WQEntry) -> None:
        """Pop a specific entry chosen by the drain scheduler."""
        if self._entries.get(entry.seq) is not entry:
            raise ValueError("entry not in write queue")
        self._delete(entry)

    def find_line(self, line: int) -> Optional[WQEntry]:
        """Youngest queued write to ``line`` (for read forwarding)."""
        bucket = self._by_line.get(line)
        return bucket[-1] if bucket else None

    def oldest(self) -> Optional[WQEntry]:
        return next(iter(self._entries.values())) if self._entries else None

    # ------------------------------------------------------------------
    # Crash behaviour (ADR)
    # ------------------------------------------------------------------

    def adr_flush_order(self) -> List[WQEntry]:
        """Entries in the order the ADR battery drains them on a failure."""
        return list(self._entries.values())

    def clear(self) -> None:
        self._entries.clear()
        self._by_line.clear()
        self._counters_by_line.clear()
        self.data_by_bank.clear()
        self.counters_by_bank.clear()
        self.version += 1
