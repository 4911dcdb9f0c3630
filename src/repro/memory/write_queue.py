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
write-through-cached counter line. The queue does both steps at once: it
moves the older entry to the tail as the new write (its append time,
sequence number, bank and payload), which is observably the same as
removing it and appending a new one.

The alternative *merge-in-place* policy (update the older entry where it
sits) is implemented for the ablation benchmark.

Durability: the queue sits inside the ADR domain — on a power failure the
battery drains every entry to NVM. ``adr_flush_order()`` exposes the
entries for crash modelling.

Implementation: an occupancy count ``n`` plus three structures, each
holding entries in FIFO (append) order: ``by_line`` maps a line to its
queued entries (read forwarding takes the youngest, CWC the counter
entry), and ``data_by_bank``/``counters_by_bank`` map a bank to its
queued data or counter entries (the drain scheduler reads their heads).
A list holds a handful of entries, so :meth:`append` and :meth:`remove`
are O(1) amortised, and each does its own bookkeeping. :meth:`append`
is the only code that builds a :class:`WQEntry`, and it builds none for
a write that coalesces. An entry's monotonic ``seq`` records the global
append order; the cold paths that need it (iteration, :meth:`oldest`,
:meth:`adr_flush_order`) derive it from the buckets.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterator, List, Optional

from repro.common.errors import SimulationError
from repro.common.stats import Stats
from repro.obs.tracer import NULL_TRACER

#: CWC policies.
CWC_REMOVE_OLDER = "remove-older"
CWC_MERGE_IN_PLACE = "merge-in-place"

_seq = attrgetter("seq")


@dataclass(slots=True, eq=False)
class WQEntry:
    """One queued line write.

    ``slots=True``: hundreds of thousands of entries are constructed and
    field-scanned per run, so slot storage (no per-entry ``__dict__``)
    measurably trims both allocation and attribute access. ``eq=False``:
    the queue's lists find an entry by identity, never by field equality.
    """

    line: int
    bank: int
    is_counter: bool
    enq_time: float
    payload: Optional[bytes] = None
    #: Monotonic sequence number preserving global append order.
    seq: int = 0


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
        self._merge_in_place = cwc_policy == CWC_MERGE_IN_PLACE
        self._tracer = tracer
        #: Occupancy: the number of queued entries.
        self.n = 0
        #: line -> queued entries for that line.
        self.by_line: Dict[int, List[WQEntry]] = {}
        #: bank -> queued *data* entries, and the same for *counter*
        #: entries. The drain scheduler picks per bucket (the head, or a
        #: short walk of a held-back counter bucket; see
        #: ``MemoryController._best_candidate``), so these shrink its scan
        #: from O(queue) to O(banks).
        self.data_by_bank: Dict[int, List[WQEntry]] = {}
        self.counters_by_bank: Dict[int, List[WQEntry]] = {}
        self._seq = 0
        # Stat slots bumped by list index — the counts inc() would make
        # (and the running peak) without a method call per append (the
        # append path is per-CLWB hot).
        self._vals = stats.values
        self._k_appends = stats.slot("wq", "appends")
        self._k_counter_appends = stats.slot("wq", "counter_appends")
        self._k_data_appends = stats.slot("wq", "data_appends")
        self._k_peak = stats.slot("wq", "peak_occupancy")
        self._k_cwc = stats.slot("wq", "cwc_coalesced")

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------------
    # Append path (with CWC)
    # ------------------------------------------------------------------

    def append(
        self,
        line: int,
        bank: int,
        is_counter: bool,
        enq_time: float,
        payload: Optional[bytes] = None,
        target: Optional[WQEntry] = None,
    ) -> bool:
        """Queue one write; returns True if CWC coalesced it.

        ``target`` is the write's CWC target, :meth:`cwc_target` of
        ``line`` for a counter write and None for a data write: the
        caller looks it up once, since it also decides whether the write
        needs a free slot. A write with a target takes no slot and builds
        no entry. Under remove-older the target becomes the new write at
        the tail: the append time, sequence number, bank and payload
        change, and it moves to the end of its lists (to another bank's
        list if the bank changed). Under merge-in-place only its payload
        changes. Otherwise the caller must have ensured a free slot.
        """
        vals = self._vals
        vals[self._k_appends] += 1
        if is_counter:
            vals[self._k_counter_appends] += 1
            if target is not None:
                vals[self._k_cwc] += 1
                if self._tracer.enabled:
                    self._tracer.wq_coalesce(enq_time, line, self.cwc_policy)
                target.payload = payload
                if self._merge_in_place:
                    return True
                by_bank = self.counters_by_bank
                old_bank = target.bank
                bucket = by_bank[old_bank]
                if bank != old_bank:
                    if len(bucket) == 1:
                        del by_bank[old_bank]
                    else:
                        bucket.remove(target)
                    bucket = by_bank.get(bank)
                    if bucket is None:
                        by_bank[bank] = [target]
                    else:
                        bucket.append(target)
                    target.bank = bank
                elif bucket[-1] is not target:
                    bucket.remove(target)
                    bucket.append(target)
                # Only a data write to the same line can follow it in the
                # line's list. No run writes data to a counter line, but
                # find_line must still see the counter write as youngest.
                bucket = self.by_line[line]
                if bucket[-1] is not target:
                    bucket.remove(target)
                    bucket.append(target)
                target.enq_time = enq_time
                target.seq = self._seq
                self._seq += 1
                return True
            by_bank = self.counters_by_bank
        else:
            vals[self._k_data_appends] += 1
            by_bank = self.data_by_bank
        n = self.n
        if n >= self.capacity:
            raise SimulationError("append to full write queue")
        entry = WQEntry(line, bank, is_counter, enq_time, payload, self._seq)
        self._seq += 1
        # get-then-branch instead of setdefault: setdefault allocates a
        # fresh empty list on *every* call just in case.
        bucket = self.by_line.get(line)
        if bucket is None:
            self.by_line[line] = [entry]
        else:
            bucket.append(entry)
        bucket = by_bank.get(bank)
        if bucket is None:
            by_bank[bank] = [entry]
        else:
            bucket.append(entry)
        n += 1
        self.n = n
        if n > vals[self._k_peak]:
            vals[self._k_peak] = n
        return False

    def cwc_target(self, line: int) -> Optional[WQEntry]:
        """The queued entry a counter write to ``line`` coalesces with.

        The flag bit makes this a lookup in the line's short list: the
        queued counter entry for the line, or None (also when CWC is
        off). With CWC on a line has at most one queued counter entry,
        since every later counter write to it coalesces.
        """
        if self.cwc_enabled:
            for entry in self.by_line.get(line, ()):
                if entry.is_counter:
                    return entry
        return None

    def would_coalesce(self, line: int) -> bool:
        """Whether a counter write to ``line`` would coalesce (needs no slot)."""
        return self.cwc_target(line) is not None

    # ------------------------------------------------------------------
    # Drain side
    # ------------------------------------------------------------------

    def remove(self, entry: WQEntry) -> None:
        """Pop a specific entry chosen by the drain scheduler."""
        by_bank = self.counters_by_bank if entry.is_counter else self.data_by_bank
        bucket = by_bank.get(entry.bank)
        if bucket is None:
            raise ValueError("entry not in write queue")
        # By identity (eq=False); raises ValueError before any change.
        bucket.remove(entry)
        if not bucket:
            del by_bank[entry.bank]
        bucket = self.by_line[entry.line]
        bucket.remove(entry)
        if not bucket:
            del self.by_line[entry.line]
        self.n -= 1

    def find_line(self, line: int) -> Optional[WQEntry]:
        """Youngest queued write to ``line`` (for read forwarding)."""
        bucket = self.by_line.get(line)
        return bucket[-1] if bucket else None

    def oldest(self) -> Optional[WQEntry]:
        """The queued entry appended first (the ``fifo`` drain's pick)."""
        heads = [bucket[0] for bucket in self.data_by_bank.values()]
        heads += [bucket[0] for bucket in self.counters_by_bank.values()]
        return min(heads, key=_seq, default=None)

    def __iter__(self) -> Iterator[WQEntry]:
        return iter(self.adr_flush_order())

    # ------------------------------------------------------------------
    # Crash behaviour (ADR)
    # ------------------------------------------------------------------

    def adr_flush_order(self) -> List[WQEntry]:
        """Entries in the order the ADR battery drains them on a failure."""
        entries = [entry for bucket in self.by_line.values() for entry in bucket]
        entries.sort(key=_seq)
        return entries

    def clear(self) -> None:
        self.n = 0
        self.by_line.clear()
        self.data_by_bank.clear()
        self.counters_by_bank.clear()
