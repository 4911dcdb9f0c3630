"""The memory controller: drain scheduling, reads, stalls, ADR.

The controller owns the write queue, the banks, and the command bus, and
exposes exactly the operations the secure-memory layer needs:

* :meth:`append_write` / :meth:`append_pair` — place one line write (or an
  atomic data+counter pair staged by the atomicity register) into the
  ADR-protected write queue, stalling the caller when the queue is full.
  A line is **durable once appended** (ADR semantics, Section 2.1), so the
  returned append time is the persistence time a transaction waits on.
* :meth:`read` — service a demand read with read priority: reads bypass
  queued writes (but not a write already occupying the bank) and are
  forwarded straight from the write queue on an address match.
* :meth:`advance_to` — lazily simulate the background drain up to a given
  time: the scheduler repeatedly issues the queued write with the earliest
  feasible start (bank free, bus free), FIFO-tie-broken, which is
  FR-FCFS restricted to writes. A pick scans the heads of the queue's
  per-bank buckets. Between picks the controller keeps one number, a
  lower bound on the start of every queued write; a request that
  arrives before it skips the scan, so the drain scans about once per
  issued write rather than once more per request.

The whole paper plays out in this object's queueing behaviour: doubling
appends (write-through counters) doubles queue pressure; CWC removes
counter appends; XBank changes which bank each counter write occupies.
These paths run once per request or issued write, so they read the
queue's occupancy (``wq.n``) and per-line lists directly; the one query
they make is :meth:`~repro.memory.write_queue.WriteQueue.cwc_target`,
once per counter append, and its answer travels with the append into
:meth:`~repro.memory.write_queue.WriteQueue.append`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.address import AddressMap
from repro.common.config import SimConfig
from repro.common.errors import SimulationError
from repro.common.stats import Stats
from repro.memory.bank import Bank, RankState
from repro.memory.nvm import NVMStore
from repro.memory.write_queue import WQEntry, WriteQueue
from repro.obs.tracer import NULL_TRACER

#: Later than any start: the initial best in a candidate scan.
_NEVER = float("inf")
#: Earlier than any start: a start bound that holds nothing back.
_EARLIEST = float("-inf")


class MemoryController:
    """Scheduler over one rank of NVM banks plus the write queue.

    The drain state only moves forward: :attr:`clock`, every entry of
    :attr:`bus_free_at` and every bank's ``free_at`` never decrease.
    Every queued write's start is the latest of these (and, for a
    deferred counter, of its append time plus the deferral window), so
    it only grows until the write issues; :meth:`advance_to` relies on
    that.
    """

    def __init__(
        self,
        config: SimConfig,
        stats: Stats,
        nvm: Optional[NVMStore] = None,
        tracer=NULL_TRACER,
    ):
        self.config = config
        self.amap: AddressMap = config.address_map()
        self._stats = stats
        self._tracer = tracer
        self.nvm = nvm if nvm is not None else NVMStore(stats)
        self.rank = RankState(config.timing)
        self.banks: List[Bank] = [
            Bank(i, config.timing, self.rank, stats, tracer=tracer)
            for i in range(config.memory.n_banks)
        ]
        self.wq = WriteQueue(
            capacity=config.memory.write_queue_entries,
            stats=stats,
            cwc_enabled=config.cwc_enabled,
            cwc_policy=config.cwc_policy,
            tracer=tracer,
        )
        # Record the geometry so post-run analyses (profiling) can recover
        # the bank count without re-threading the config. The "config"
        # namespace is exempt from warmup counter resets.
        stats.set("config", "n_banks", config.memory.n_banks)
        #: Per-channel command-bus availability (request issue serialises
        #: within a channel; channels are independent). The paper's
        #: platform is single-channel, the default.
        self.n_channels = config.memory.n_channels
        self._banks_per_channel = config.memory.n_banks // self.n_channels
        self.bus_free_at = [0.0] * self.n_channels
        #: Controller logical clock: latest time the drain has simulated.
        self.clock: float = 0.0
        #: Lower bound on the start of every queued write (under
        #: ``fifo``, of the oldest one); see :meth:`advance_to`.
        self._hold: float = _EARLIEST
        # Write-drain watermarks: the background drain engages when the
        # queue reaches `high` and disengages at `low`. Writes are not
        # latency-critical (ADR makes the append the durability point), so
        # letting them sit maximises CWC's coalescing window — and is how
        # real controllers batch writes anyway.
        depth = config.memory.write_queue_entries
        high = config.memory.wq_high_watermark
        low = config.memory.wq_low_watermark
        self.high_watermark = max(1, (3 * depth) // 4) if high is None else high
        self.low_watermark = max(0, depth // 4) if low is None else low
        if not 0 <= self.low_watermark < self.high_watermark <= depth:
            raise SimulationError(
                f"bad watermarks low={self.low_watermark} "
                f"high={self.high_watermark} depth={depth}"
            )
        self._draining = False
        policy = config.memory.drain_policy
        if policy not in ("defer-counters", "frfcfs", "fifo"):
            raise SimulationError(f"unknown drain policy {policy!r}")
        self._policy = policy
        #: How long a counter write is held back after its append: 0
        #: outside ``defer-counters``. The window scales with queue depth:
        #: a counter entry's natural residency in a depth-D queue is
        #: D/(2*banks) write services, so CWC's reach grows with the queue
        #: exactly as the paper's Figure 16a reports.
        self._counter_defer_ns = (
            depth * config.timing.write_service_ns / (2.0 * config.memory.n_banks)
            if policy == "defer-counters"
            else 0.0
        )
        # Hoists: the drain scheduler runs once per issued write and the
        # append/read paths once per request, so stat slots and a
        # cached bus latency replace per-call property and stats walks.
        self._vals = stats.values
        self._k_issued = stats.slot("wq", "issued")
        self._k_counter_issued = stats.slot("wq", "counter_issued")
        self._k_data_issued = stats.slot("wq", "data_issued")
        self._k_mc_reads = stats.slot("mc", "reads")
        self._k_read_forwards = stats.slot("wq", "read_forwards")
        self._k_pair_appends = stats.slot("wq", "pair_appends")
        self._k_full_stalls = stats.slot("wq", "full_stalls")
        self._k_stall_ns = stats.slot("wq", "stall_ns")
        self._bus_ns = config.timing.bus_ns

    # ------------------------------------------------------------------
    # Drain engine
    # ------------------------------------------------------------------

    def _entry_start(self, entry: WQEntry) -> float:
        bank = self.banks[entry.bank]
        bus = self.bus_free_at[self._channel_of(entry.bank)]
        return max(self.clock, bank.free_at, bus, entry.enq_time)

    def _channel_of(self, bank: int) -> int:
        return bank // self._banks_per_channel

    def _best_candidate(self) -> Tuple[float, WQEntry, float]:
        """Next write to issue under the configured drain policy.

        ``defer-counters`` (default): FR-FCFS, but a ready counter write
        yields to a data write that can start within the deferral window
        — counters linger (feeding CWC) and drain in the gaps.
        ``frfcfs``: earliest feasible start, FIFO tie-break.
        ``fifo``: strict append order (head-of-line blocking).

        Returns ``(start, entry, runner_up)`` for a non-empty queue.
        ``runner_up`` is the smallest start among the buckets the pick
        did not come from (``inf`` if there are none; ``-inf`` under
        ``fifo``, whose pick looks at the oldest entry only): with the
        issued write's end it bounds the next pick (:meth:`advance_to`).

        Per-bank pick (exact, not heuristic): a naive full-queue scan
        picks the lexicographic minimum of ``(start, seq)``, where
        ``start = max(clock, bank free, bus free, enq_time)`` (raised to
        ``enq_time + defer`` for a counter under ``defer-counters``).
        Every entry is appended through this controller at an
        ``enq_time`` no later than the clock (``advance_to`` and the
        make-space loops move the clock to at least the append time, and
        the clock never goes back), whatever order the cores append in.
        The ``enq_time`` term of that start is therefore inert, so:

        * a *data* entry's start depends only on its bank: every entry of
          a bucket shares one start and the FIFO-first (smallest ``seq``)
          wins the tie-break;
        * a *counter* entry's start is ``max(base, enq_time + defer)``
          over its bank's base start. If the FIFO-first entry is not held
          back past ``base`` it wins outright (smallest start, smallest
          ``seq``); otherwise the bucket — a few entries — is walked for
          its exact argmin, since out-of-order appends can leave a later
          entry with an earlier ``enq_time``.
        """
        if self._policy == "fifo":
            entry = self.wq.oldest()
            return self._entry_start(entry), entry, _EARLIEST
        wq = self.wq
        clock = self.clock
        defer = self._counter_defer_ns
        banks = self.banks
        bus_free_at = self.bus_free_at
        banks_per_channel = self._banks_per_channel
        # Every start is finite, so the first bucket always wins this.
        best_start = runner_up = _NEVER
        best_seq = 0
        best_entry = None
        # Invariant: best_start <= runner_up. A start above runner_up
        # changes neither; one equal to best_start is a runner-up
        # whichever bucket wins the FIFO tie-break.
        for bank, bucket in wq.data_by_bank.items():
            start = banks[bank].free_at
            if start < clock:
                start = clock
            bus = bus_free_at[bank // banks_per_channel]
            if bus > start:
                start = bus
            if start < best_start:
                runner_up = best_start
                best_entry = bucket[0]
                best_start, best_seq = start, best_entry.seq
            elif start <= runner_up:
                runner_up = start
                if start == best_start:
                    entry = bucket[0]
                    if entry.seq < best_seq:
                        best_entry, best_seq = entry, entry.seq
        for bank, bucket in wq.counters_by_bank.items():
            start = banks[bank].free_at
            if start < clock:
                start = clock
            bus = bus_free_at[bank // banks_per_channel]
            if bus > start:
                start = bus
            entry = bucket[0]
            if defer:
                # A counter write is held back for a fixed coalescing
                # window after its append; afterwards it competes like any
                # other write (so XBank's parallelism is intact while CWC
                # gets its merge window).
                deferred = entry.enq_time + defer
                if deferred > start:
                    # Held back: a later entry appended earlier in time
                    # may start sooner. Strict < keeps the FIFO tie-break;
                    # reaching the base start cannot be beaten.
                    for other in bucket:
                        other_deferred = other.enq_time + defer
                        if other_deferred < deferred:
                            entry, deferred = other, other_deferred
                            if deferred <= start:
                                break
                    if deferred > start:
                        start = deferred
            if start < best_start:
                runner_up = best_start
                best_start, best_seq, best_entry = start, entry.seq, entry
            elif start <= runner_up:
                runner_up = start
                if start == best_start and entry.seq < best_seq:
                    best_seq, best_entry = entry.seq, entry
        return best_start, best_entry, runner_up

    def _issue(self, entry: WQEntry, start: float) -> float:
        """Send one queued write to its bank; returns completion time."""
        wq = self.wq
        wq.remove(entry)
        bank = entry.bank
        self.bus_free_at[bank // self._banks_per_channel] = start + self._bus_ns
        end = self.banks[bank].service_write(start)
        self.nvm.write_line(entry.line, entry.payload)
        if self._tracer.enabled:
            self._tracer.wq_issue(start, entry.line, bank, entry.is_counter, wq.n)
        vals = self._vals
        vals[self._k_issued] += 1
        if entry.is_counter:
            vals[self._k_counter_issued] += 1
        else:
            vals[self._k_data_issued] += 1
        return end

    def advance_to(self, t: float) -> None:
        """Simulate the background drain up to time ``t``.

        Hysteresis: the drain engages when the queue reaches the high
        watermark and releases at the low one. This runs once per
        request. While the drain is disengaged below the high watermark
        it only moves the clock; otherwise each step issues the write
        :meth:`_best_candidate` picks if it can start by ``t``.

        ``_hold`` is a lower bound on the start of every queued write
        (under ``fifo``, of the oldest one, the only one it picks). A
        queued write's start only grows (see the class docstring), and a
        removal only takes candidates away, so three rules keep the
        bound:

        * an append lowers it to the new entry's earliest start (under
          ``fifo`` a coalescing one resets it: CWC may have removed the
          oldest entry);
        * a scan that finds nothing startable by ``t`` raises it to the
          start it found;
        * an issue sets it to the smaller of the scan's runner-up and the
          issued write's end: the entries left in the picked bucket
          share its bank.

        While ``t < _hold`` no write can start by ``t``, and a step makes
        only the hysteresis change without a scan. The drain then scans
        about once per issued write rather than once more per request.
        Unlike a memo of the last pick, the bound survives reads and
        issues, which only raise start times.
        """
        wq = self.wq
        draining = self._draining
        if not draining and wq.n < self.high_watermark:
            if t > self.clock:
                self.clock = t
            return
        low = self.low_watermark
        high = self.high_watermark
        while True:
            occupancy = wq.n
            if draining:
                if occupancy <= low:
                    draining = False
                    break
            elif occupancy >= high:
                draining = True
            else:
                break
            if t < self._hold:
                break
            start, entry, runner_up = self._best_candidate()
            if start > t:
                self._hold = start
                break
            end = self._issue(entry, start)
            self._hold = runner_up if runner_up < end else end
            if start > self.clock:
                self.clock = start
        self._draining = draining
        if t > self.clock:
            self.clock = t

    def drain_all(self) -> float:
        """Issue everything; returns the completion time of the last write.

        The queue ends empty, which no start bound can get wrong, so
        ``_hold`` is left as it is.
        """
        finish = self.clock
        while self.wq.n > 0:
            start, entry, _ = self._best_candidate()
            finish = max(finish, self._issue(entry, start))
            if start > self.clock:
                self.clock = start
        return finish

    # ------------------------------------------------------------------
    # Append path (persistence domain entry)
    # ------------------------------------------------------------------

    def _make_space(
        self, t: float, slots: int, core: int, target: Optional[WQEntry] = None
    ) -> Tuple[float, Optional[WQEntry]]:
        """Drain until ``slots`` queue slots are free.

        Returns the stall end and ``target``, or None for a target this
        drain issued. ``target`` is the CWC target of a counter write
        among the ``slots``: that write needs no slot while the target is
        queued. Issuing it drops it, and the write then needs its slot.
        No other entry can take its place, since CWC keeps at most one
        queued counter entry per line and a drain appends nothing.
        """
        wq = self.wq
        append_time = t
        while True:
            need = slots if target is None else slots - 1
            if wq.n + need <= wq.capacity:
                break
            start, entry, runner_up = self._best_candidate()
            end = self._issue(entry, start)
            if entry is target:
                target = None
            self._hold = runner_up if runner_up < end else end
            if start > self.clock:
                self.clock = start
            if start > append_time:
                append_time = start
        if append_time > t:
            self._vals[self._k_full_stalls] += 1
            self._vals[self._k_stall_ns] += append_time - t
            if self._tracer.enabled:
                self._tracer.wq_stall(t, append_time - t, core)
        return append_time, target

    def append_write(
        self,
        t: float,
        line: int,
        bank: Optional[int] = None,
        is_counter: bool = False,
        payload: Optional[bytes] = None,
        core: int = 0,
    ) -> float:
        """Append one write; returns the time the append completed.

        ``bank`` defaults to the data mapping of ``line``; counter writes
        pass their explicit placement from the layout. A full-queue stall
        is charged to ``core``.
        """
        self.advance_to(t)
        wq = self.wq
        # A counter write that CWC coalesces needs no free slot; a drain
        # only removes entries, so a write without a target keeps none.
        target = wq.cwc_target(line) if is_counter else None
        append_time = t
        if target is None and wq.n >= wq.capacity:
            append_time = self._make_space(t, 1, core)[0]
        if bank is None:
            bank = self.amap.bank_of_line(line)
        if wq.append(line, bank, is_counter, append_time, payload, target):
            if self._policy == "fifo":
                # CWC may have moved the oldest entry, the one the bound
                # is about under fifo; the next oldest may start sooner.
                self._hold = _EARLIEST
        # The new entry's earliest start bounds the next pick.
        start = self.banks[bank].free_at
        if is_counter:
            deferred = append_time + self._counter_defer_ns
            if deferred > start:
                start = deferred
        if start < self._hold:
            self._hold = start
        if self._tracer.enabled:
            self._tracer.wq_append(append_time, line, is_counter, wq.n)
        return append_time

    def append_pair(
        self,
        t: float,
        line: int,
        bank: int,
        payload: Optional[bytes],
        counter_line: int,
        counter_bank: int,
        counter_payload: Optional[bytes],
        core: int = 0,
    ) -> float:
        """Append a data+counter pair atomically (the staging register).

        Both writes enter the queue at the same instant, so the ADR
        domain always holds either both or neither — the crash-consistency
        invariant of Section 3.2. Returns the append time. A full-queue
        stall is charged to ``core``.
        """
        self.advance_to(t)
        wq = self.wq
        target = wq.cwc_target(counter_line)
        append_time = t
        if wq.n + (2 if target is None else 1) > wq.capacity:
            append_time, target = self._make_space(t, 2, core, target)
        if target is not None:
            # Counter first, as when CWC's removal freed the data's slot:
            # the pair's sequence numbers keep that order.
            wq.append(
                counter_line, counter_bank, True, append_time, counter_payload, target
            )
            wq.append(line, bank, False, append_time, payload)
            if self._policy == "fifo":
                # As in append_write: the oldest entry may have moved.
                self._hold = _EARLIEST
        else:
            wq.append(line, bank, False, append_time, payload)
            wq.append(counter_line, counter_bank, True, append_time, counter_payload)
        # The new entries' earliest starts bound the next pick.
        start = self.banks[bank].free_at
        counter_start = self.banks[counter_bank].free_at
        deferred = append_time + self._counter_defer_ns
        if deferred > counter_start:
            counter_start = deferred
        if counter_start < start:
            start = counter_start
        if start < self._hold:
            self._hold = start
        tracer = self._tracer
        if tracer.enabled:
            occupancy = wq.n
            tracer.wq_append(append_time, line, False, occupancy)
            tracer.wq_append(append_time, counter_line, True, occupancy)
        self._vals[self._k_pair_appends] += 1
        return append_time

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def read(
        self,
        t: float,
        line: int,
        bank: Optional[int] = None,
        row: Optional[int] = None,
    ) -> float:
        """Service a demand read at time ``t``; returns its finish time."""
        self.advance_to(t)
        if line in self.wq.by_line:
            self._vals[self._k_read_forwards] += 1
            return t + self._bus_ns
        bank_index = self.amap.bank_of_line(line) if bank is None else bank
        row_id = self.amap.row_of_line(line) if row is None else row
        channel = bank_index // self._banks_per_channel
        start = self.bus_free_at[channel]
        if t > start:
            start = t
        self.bus_free_at[channel] = start + self._bus_ns
        end, _ = self.banks[bank_index].service_read(start, row_id)
        self._vals[self._k_mc_reads] += 1
        return end

    # Names bench/layers.py (the benchmark's per-layer table) still lists;
    # it is their only reader, and they go when that table drops them.
    append_write_fast = append_write
    append_pair_fast = append_pair
    read_fast = read

    def read_payload(self, line: int) -> bytes:
        """Functional read: current durable-or-queued image of ``line``.

        Uses the stats-free :meth:`NVMStore.peek` — this path only exists
        in full-fidelity runs, and it must not perturb the "nvm" counters
        that timing-fidelity runs are digest-compared against.
        """
        entry = self.wq.find_line(line)
        if entry is not None and entry.payload is not None:
            return entry.payload
        return self.nvm.peek(line)

    # ------------------------------------------------------------------
    # Crash behaviour
    # ------------------------------------------------------------------

    def adr_flush(self) -> int:
        """Power failure: the ADR battery drains the write queue to NVM.

        Returns the number of entries flushed. Timing is irrelevant — the
        machine is dying; only the functional contents matter.
        """
        entries = self.wq.adr_flush_order()
        for entry in entries:
            self.nvm.write_line(entry.line, entry.payload)
        self.wq.clear()
        self._stats.inc("wq", "adr_flushed", len(entries))
        return len(entries)
