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
  FR-FCFS restricted to writes.

The whole paper plays out in this object's queueing behaviour: doubling
appends (write-through counters) doubles queue pressure; CWC removes
counter appends; XBank changes which bank each counter write occupies.
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


class MemoryController:
    """Scheduler over one rank of NVM banks plus the write queue."""

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
        self.rank = RankState(config.timing, enforce=config.memory.enforce_tfaw)
        self.banks: List[Bank] = [
            Bank(
                i,
                config.timing,
                config.memory,
                self.rank,
                stats,
                tracer=tracer,
            )
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
        if tracer.enabled:
            tracer.register_gauge("wq.occupancy", lambda ts: len(self.wq))
            for bank in self.banks:
                tracer.register_gauge(
                    f"bank.{bank.index}.busy_frac",
                    (
                        lambda ts, ns=f"bank.{bank.index}": (
                            stats.get(ns, "busy_ns") / ts if ts > 0 else 0.0
                        )
                    ),
                    track=f"bank.{bank.index}",
                )
        #: Per-channel command-bus availability (request issue serialises
        #: within a channel; channels are independent). The paper's
        #: platform is single-channel, the default.
        self.n_channels = config.memory.n_channels
        self._banks_per_channel = config.memory.n_banks // self.n_channels
        self.bus_free_at = [0.0] * self.n_channels
        #: Controller logical clock: latest time the drain has simulated.
        self.clock: float = 0.0
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
        defer = config.memory.counter_defer_ns
        if defer is None:
            # Default: scale the coalescing window with queue depth — a
            # counter entry's natural residency in a depth-D queue is
            # D/(2*banks) write services, so CWC's reach grows with the
            # queue exactly as the paper's Figure 16a reports.
            defer = (
                depth
                * config.timing.write_service_ns
                / (2.0 * config.memory.n_banks)
            )
        self._counter_defer_ns = defer
        # Hoists: the drain scheduler runs once per issued write and the
        # append/read paths once per request, so prebuilt stat keys and a
        # cached bus latency replace per-call property and stats walks.
        self._vals = stats.raw()
        self._k_issued = ("wq", "issued")
        self._k_counter_issued = ("wq", "counter_issued")
        self._k_data_issued = ("wq", "data_issued")
        self._k_mc_reads = ("mc", "reads")
        self._k_read_forwards = ("wq", "read_forwards")
        self._k_pair_appends = ("wq", "pair_appends")
        self._k_full_stalls = ("wq", "full_stalls")
        self._k_stall_ns = ("wq", "stall_ns")
        self._bus_ns = config.timing.bus_ns
        # Memoized result of the last candidate scan, as a
        # ``(wq.version, start, entry)`` triple; see _best_candidate.
        self._cand_cache: Optional[Tuple[int, float, WQEntry]] = None

    # ------------------------------------------------------------------
    # Drain engine
    # ------------------------------------------------------------------

    def _entry_start(self, entry: WQEntry) -> float:
        bank = self.banks[entry.bank]
        bus = self.bus_free_at[self._channel_of(entry.bank)]
        return max(self.clock, bank.free_at, bus, entry.enq_time)

    def _channel_of(self, bank: int) -> int:
        return bank // self._banks_per_channel

    def _best_candidate(self) -> Optional[Tuple[float, WQEntry]]:
        """Next write to issue under the configured drain policy.

        ``defer-counters`` (default): FR-FCFS, but a ready counter write
        yields to a data write that can start within ``counter_defer_ns``
        — counters linger (feeding CWC) and drain in the gaps.
        ``frfcfs``: earliest feasible start, FIFO tie-break.
        ``fifo``: strict append order (head-of-line blocking).

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
            if entry is None:
                return None
            return self._entry_start(entry), entry
        wq = self.wq
        clock = self.clock
        # Reuse the previous scan while it provably still holds: the
        # queue is unchanged (version match — appends, issues, and CWC
        # removals all bump it; bank/bus state only moves on an issue or
        # a demand read, which bump/invalidate too) and the clock has not
        # passed the cached start. Every entry's start is a max over
        # terms that include the clock, and every cached start is >= the
        # cached minimum, so advancing the clock up to that minimum
        # changes no start and therefore no argmin. advance_to() probes
        # once per persist but issues far less often, so this converts
        # the common "scan, then break on start > t" probe into O(1).
        cached = self._cand_cache
        if (
            cached is not None
            and cached[0] == wq.version
            and clock <= cached[1]
        ):
            return cached[1], cached[2]

        defer = self._counter_defer_ns if self._policy == "defer-counters" else 0.0
        banks = self.banks
        bus_free_at = self.bus_free_at
        banks_per_channel = self._banks_per_channel
        best_start = None
        best_seq = 0
        best_entry = None
        for bank, bucket in wq.data_by_bank.items():
            start = banks[bank].free_at
            if start < clock:
                start = clock
            bus = bus_free_at[bank // banks_per_channel]
            if bus > start:
                start = bus
            if best_entry is None or start < best_start:
                best_entry = next(iter(bucket.values()))
                best_start, best_seq = start, best_entry.seq
            elif start == best_start:
                entry = next(iter(bucket.values()))
                if entry.seq < best_seq:
                    best_entry, best_seq = entry, entry.seq
        for bank, bucket in wq.counters_by_bank.items():
            start = banks[bank].free_at
            if start < clock:
                start = clock
            bus = bus_free_at[bank // banks_per_channel]
            if bus > start:
                start = bus
            entries = iter(bucket.values())
            entry = next(entries)
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
                    for other in entries:
                        other_deferred = other.enq_time + defer
                        if other_deferred < deferred:
                            entry, deferred = other, other_deferred
                            if deferred <= start:
                                break
                    if deferred > start:
                        start = deferred
            if (
                best_entry is None
                or start < best_start
                or (start == best_start and entry.seq < best_seq)
            ):
                best_start, best_seq, best_entry = start, entry.seq, entry
        if best_entry is None:
            return None
        self._cand_cache = (wq.version, best_start, best_entry)
        return best_start, best_entry

    def _issue(self, entry: WQEntry, start: float) -> float:
        """Send one queued write to its bank; returns completion time."""
        self.wq.remove(entry)
        bank = entry.bank
        self.bus_free_at[bank // self._banks_per_channel] = start + self._bus_ns
        end = self.banks[bank].service_write(start)
        self.nvm.write_line(entry.line, entry.payload)
        if self._tracer.enabled:
            self._tracer.wq_issue(
                start, entry.line, bank, entry.is_counter, len(self.wq)
            )
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
        request, so the two no-drain cases return in O(1) first: the
        drain is disengaged below the high watermark, or it is engaged
        above the low watermark but the memoized candidate (still valid:
        version match, clock not past it) cannot start by ``t``. Either
        way the loop below would break at once, changing only the clock.
        """
        wq = self.wq
        draining = self._draining
        if not draining:
            if len(wq) < self.high_watermark:
                if t > self.clock:
                    self.clock = t
                return
        else:
            cached = self._cand_cache
            if (
                cached is not None
                and cached[1] > t
                and cached[0] == wq.version
                and self.clock <= cached[1]
                and len(wq) > self.low_watermark
            ):
                if t > self.clock:
                    self.clock = t
                return
        low = self.low_watermark
        high = self.high_watermark
        best_candidate = self._best_candidate
        issue = self._issue
        while True:
            occupancy = len(wq)
            if occupancy == 0:
                break
            if draining:
                if occupancy <= low:
                    draining = False
                    break
            elif occupancy >= high:
                draining = True
            else:
                break
            candidate = best_candidate()
            if candidate is None:
                break
            start, entry = candidate
            if start > t:
                break
            issue(entry, start)
            if start > self.clock:
                self.clock = start
        self._draining = draining
        if t > self.clock:
            self.clock = t

    def drain_all(self) -> float:
        """Issue everything; returns the completion time of the last write."""
        finish = self.clock
        while len(self.wq) > 0:
            candidate = self._best_candidate()
            if candidate is None:  # pragma: no cover - queue always feasible
                raise SimulationError("non-empty write queue with no candidate")
            start, entry = candidate
            finish = max(finish, self._issue(entry, start))
            if start > self.clock:
                self.clock = start
        return finish

    # ------------------------------------------------------------------
    # Append path (persistence domain entry)
    # ------------------------------------------------------------------

    def _make_space(self, t: float, slots: int, core: int) -> float:
        """Drain until ``slots`` queue slots are free; returns stall end."""
        wq = self.wq
        if wq.has_space(slots):
            return t
        append_time = t
        while not wq.has_space(slots):
            candidate = self._best_candidate()
            if candidate is None:  # pragma: no cover - full queue has entries
                raise SimulationError("full write queue with no candidate")
            start, entry = candidate
            self._issue(entry, start)
            if start > self.clock:
                self.clock = start
            if start > append_time:
                append_time = start
        if append_time > t:
            self._vals[self._k_full_stalls] += 1
            self._vals[self._k_stall_ns] += append_time - t
            if self._tracer.enabled:
                self._tracer.wq_stall(t, append_time - t, core)
        return append_time

    def append_write(
        self,
        t: float,
        line: int,
        bank: Optional[int] = None,
        row: Optional[int] = None,
        is_counter: bool = False,
        payload: Optional[bytes] = None,
        core: int = 0,
    ) -> float:
        """Append one write; returns the time the append completed.

        ``bank``/``row`` default to the data mapping of ``line``; counter
        writes pass their explicit placement from the layout.
        """
        self.advance_to(t)
        tracer = self._tracer
        if tracer.enabled:
            tracer.sample_tick(t)
        wq = self.wq
        slots = 0 if (is_counter and wq.would_coalesce(line)) else 1
        append_time = self._make_space(t, slots, core) if slots else t
        wq.append(
            WQEntry(
                line=line,
                bank=self.amap.bank_of_line(line) if bank is None else bank,
                row=self.amap.row_of_line(line) if row is None else row,
                is_counter=is_counter,
                enq_time=append_time,
                payload=payload,
                core=core,
            )
        )
        if tracer.enabled:
            tracer.wq_append(append_time, line, is_counter, len(wq))
        return append_time

    def append_pair(
        self,
        t: float,
        data: WQEntry,
        counter: WQEntry,
    ) -> float:
        """Append a data+counter pair atomically (the staging register).

        Both entries enter the queue at the same instant, so the ADR
        domain always holds either both or neither — the crash-consistency
        invariant of Section 3.2. Returns the append time. A full-queue
        stall is charged to ``data.core``.
        """
        self.advance_to(t)
        tracer = self._tracer
        if tracer.enabled:
            tracer.sample_tick(t)
        wq = self.wq
        # Re-evaluate coalescibility every time we drain: issuing entries
        # to make space can consume the very counter entry the new counter
        # write would have coalesced with.
        append_time = t
        while True:
            coalesces = wq.would_coalesce(counter.line)
            if wq.has_space(1 if coalesces else 2):
                break
            candidate = self._best_candidate()
            if candidate is None:  # pragma: no cover - full queue has entries
                raise SimulationError("full write queue with no candidate")
            start, entry = candidate
            self._issue(entry, start)
            if start > self.clock:
                self.clock = start
            if start > append_time:
                append_time = start
        if append_time > t:
            self._vals[self._k_full_stalls] += 1
            self._vals[self._k_stall_ns] += append_time - t
            if tracer.enabled:
                tracer.wq_stall(t, append_time - t, data.core)
        data.enq_time = append_time
        counter.enq_time = append_time
        if coalesces:
            # Counter first: its append frees the slot the data needs.
            wq.append(counter)
            wq.append(data)
        else:
            wq.append(data)
            wq.append(counter)
        if tracer.enabled:
            occupancy = len(wq)
            tracer.wq_append(append_time, data.line, False, occupancy)
            tracer.wq_append(append_time, counter.line, True, occupancy)
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
        if self._tracer.enabled:
            self._tracer.sample_tick(t)
        if self.wq.find_line(line) is not None:
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
        # The read moved bank/bus availability without touching the
        # queue, so the memoized candidate scan no longer holds.
        self._cand_cache = None
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
