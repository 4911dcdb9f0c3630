"""The per-core timing loop.

One :class:`CoreEngine` owns a core's clock and replays its trace against
the shared :class:`~repro.core.system.SecureMemorySystem` in two passes
over the decoded op arrays (:mod:`repro.sim.batch`):

* :meth:`CoreEngine.run_batched_record` walks the CPU cache hierarchy
  alone — no clock, no memory calls — and records each op's outcome;
* :meth:`CoreEngine.replay`, the one per-op timing loop, charges the
  recorded SRAM latencies and drives the memory system:

  - **loads/stores** that miss become memory reads (with the
    counter-cache/OTP overlap inside the system); dirty last-level
    evictions become memory writes through the full encryption path —
    fire-and-forget from the core's perspective, like a hardware write
    buffer;
  - **clwb** flushes a dirty line into the persistence domain; the core
    waits for the *append* (durability under ADR), which is where full-
    write-queue stalls — the paper's central bottleneck — surface;
  - **sfence** adds the fence cost (appends are already ordered here);
  - **txn markers** delimit per-transaction latency measurement.

A single-core recording resolves the whole walk, and
:meth:`CoreEngine.run_batched_replay` replays it in one go. A multicore
recording (:func:`repro.sim.multicore.record_private_walk`) covers only
the core's private L1/L2; the replay applies its L3 events to the shared
L3 as it goes and hands control back to the interleave
(:mod:`repro.sim.multicore`) whenever such an op must wait for another
core.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.cache.hierarchy import CacheHierarchy, walk_latencies_ns
from repro.common.config import SimConfig
from repro.common.errors import SimulationError
from repro.core.system import SecureMemorySystem
from repro.obs.tracer import NULL_TRACER
from repro.sim.batch import (
    BK_CLWB_CLEAN,
    BK_CLWB_DIRTY,
    BK_COMPUTE,
    BK_FENCE,
    BK_MEM_HIT,
    BK_MEM_HIT_WB,
    BK_MEM_MISS,
    BK_MEM_MISS_WB,
    BK_TXN_BEGIN,
    BK_TXN_END,
    BK_OF_OP,
    PK_CLWB,
    PK_CLWB_DIRTY,
    PK_L1_HIT,
    PK_L2_HIT,
    PK_L2_HIT_PUSH,
    PK_L3_LOOKUP,
    OutcomeSegment,
)
from repro.txn.persist import OP_CLWB, OP_STORE


class CoreEngine:
    """One core's clock, transaction timer and timing loop.

    ``hierarchy`` is the cache walk :meth:`run_batched_record` records,
    built on the first walk: an engine that only replays (a multicore
    core, or a run handed a recorded stream) never allocates its tag
    stores.
    """

    def __init__(
        self,
        core_id: int,
        config: SimConfig,
        system: SecureMemorySystem,
        tracer=NULL_TRACER,
    ):
        self.core_id = core_id
        self.config = config
        self.system = system
        self.hierarchy: Optional[CacheHierarchy] = None
        self.tracer = tracer
        self.clock: float = 0.0
        self.txn_latencies: List[float] = []
        self._txn_start: Optional[float] = None
        self._measuring = True
        # Hoisted timing constants (TimingConfig properties, read per op).
        timing = config.timing
        self._cpu_op_ns = timing.cpu_op_ns
        self._clwb_issue_ns = timing.clwb_issue_ns
        self._sfence_ns = timing.sfence_ns
        # The SRAM latency a private-walk op's code implies.
        self._walk_ns = walk_latencies_ns(config.l1, config.l2, config.l3, timing)

    # ------------------------------------------------------------------

    def set_measuring(self, measuring: bool) -> None:
        """Toggle transaction-latency recording (off during warmup)."""
        self._measuring = measuring

    def run_batched_record(self, arrays) -> OutcomeSegment:
        """Walk the cache hierarchy over ``arrays``, recording its outcomes.

        A hierarchy-only pass: no clock, no memory calls. A single core's
        walk depends only on its op sequence and the cache geometry (see
        :mod:`repro.sim.batch`), so it can run ahead of the timing replay,
        and the recording drives :meth:`replay` here and in later runs of
        the same (trace, cache geometry): each op gets a ``BK_*`` code and
        an SRAM latency, and ``BK_*_WB`` ops their memory write-back
        victims.
        """
        hierarchy = self.hierarchy
        if hierarchy is None:
            config = self.config
            hierarchy = self.hierarchy = CacheHierarchy(
                config.l1, config.l2, config.l3, config.timing, self.system.stats
            )
        kinds = arrays.kinds
        args = arrays.args
        access = hierarchy.access
        clwb = hierarchy.clwb
        rec = bytearray(arrays.n)
        lats: List[float] = []
        lats_append = lats.append
        wbs: dict = {}
        store_k = OP_STORE
        clwb_k = OP_CLWB
        for i in range(arrays.n):
            kind = kinds[i]
            if kind <= store_k:  # OP_LOAD or OP_STORE
                hit_level, latency, writebacks = access(args[i], kind == store_k)
                lats_append(latency)
                if writebacks:
                    wbs[i] = tuple(writebacks)
                    rec[i] = BK_MEM_MISS_WB if hit_level is None else BK_MEM_HIT_WB
                else:
                    rec[i] = BK_MEM_MISS if hit_level is None else BK_MEM_HIT
            else:
                lats_append(0.0)
                if kind == clwb_k:
                    rec[i] = BK_CLWB_DIRTY if clwb(args[i]) else BK_CLWB_CLEAN
                else:
                    rec[i] = BK_OF_OP[kind]
        return OutcomeSegment(bytes(rec), lats, wbs)

    def run_batched_replay(self, arrays, segment) -> None:
        """Replay a recorded single-core ``segment`` over ``arrays``.

        Nothing to interleave with: unbounded, :meth:`replay` never
        yields, so one ``next`` runs the whole segment.
        """
        next(self.replay(arrays, segment), None)

    def replay(self, arrays, segment, l3=None, bound: float = math.inf):
        """The per-op timing loop over a recorded ``segment``, a generator.

        The cache walk is skipped: each op's outcome comes from the
        recording, so an SRAM-hit load/store costs two float adds. Memory
        traffic (misses, dirty clwbs, write-backs) is driven at exactly
        the clocks and in exactly the order a per-op walk would drive it.
        ``BK_*`` ops are fully resolved. ``PK_*`` ops (a private walk)
        apply their L3 events to the shared ``l3`` first: the dirty
        push-down fills, then the L2-miss lookup (a hit saves the memory
        read, a dirty victim becomes a write-back), or clwb's clean (a
        dirty L3 copy makes a clean private one persist).

        Before an op that touches the L3, the memory system or the tracer,
        a clock at or past ``bound`` is yielded; the multicore interleave
        resumes the loop once this core holds the smallest key, sending
        the next core's clock as the new bound, and the op then runs.
        Private ops — L1/L2 hits, compute, fences, txn markers without a
        tracer — never wait. Unbounded, nothing yields.

        The recorded stat delta is applied by the caller; the L3-dependent
        ``hierarchy`` counters are bumped here when the segment ends.
        """
        if len(segment.kinds) != arrays.n:
            raise SimulationError(
                "outcome segment does not match op arrays "
                f"({len(segment.kinds)} outcomes, {arrays.n} ops)"
            )
        if segment.lats is None and l3 is None:
            raise SimulationError("a private-walk segment needs a shared L3")
        args = arrays.args
        payloads = arrays.payloads
        bkinds = segment.kinds
        lats = segment.lats
        wbs = segment.wbs
        core = self.core_id
        cpu_op_ns = self._cpu_op_ns
        clwb_issue_ns = self._clwb_issue_ns
        sfence_ns = self._sfence_ns
        l1_ns, l2_ns, l3_ns = self._walk_ns
        txn_latencies = self.txn_latencies
        tracer = self.tracer
        tracer_enabled = tracer.enabled
        measuring = self._measuring
        read = self.system.read_line
        persist = self.system.persist_line
        if l3 is not None:
            l3_access = l3.access
            l3_fill = l3.fill
            l3_clean = l3.clean
        memory_writebacks = 0
        l3_dirty_clwbs = 0
        clock = self.clock
        txn_start = self._txn_start
        for i in range(arrays.n):
            kind = bkinds[i]
            # Single-core codes first, so a single-core op never tests a
            # private-walk code.
            if kind == BK_MEM_HIT:
                clock += cpu_op_ns
                clock += lats[i]
            elif kind == BK_CLWB_DIRTY:
                clock += clwb_issue_ns
                durable = persist(
                    clock,
                    args[i],
                    None if payloads is None else payloads[i],
                    core,
                )
                if durable > clock:
                    clock = durable
            elif kind == BK_MEM_MISS:
                clock += cpu_op_ns
                clock += lats[i]
                clock = read(clock, args[i], core)
            elif kind == BK_FENCE:
                clock += sfence_ns
            elif kind == BK_TXN_BEGIN:
                txn_start = clock
            elif kind == BK_TXN_END:
                if txn_start is not None:
                    if tracer_enabled and clock >= bound:
                        # The event stream is shared: wait for this turn.
                        bound = yield clock
                    if measuring:
                        txn_latencies.append(clock - txn_start)
                    if tracer_enabled:
                        tracer.txn(txn_start, clock, core)
                txn_start = None
            elif kind == BK_COMPUTE:
                clock += args[i]
            elif kind == BK_CLWB_CLEAN:
                clock += clwb_issue_ns
            elif kind < PK_L1_HIT:  # BK_MEM_HIT_WB / BK_MEM_MISS_WB
                clock += cpu_op_ns
                clock += lats[i]
                if kind == BK_MEM_MISS_WB:
                    clock = read(clock, args[i], core)
                for victim in wbs[i]:
                    persist(clock, victim, None, core, False)
            elif kind == PK_L1_HIT:
                clock += cpu_op_ns
                clock += l1_ns
            elif kind == PK_L3_LOOKUP:
                if clock >= bound:
                    bound = yield clock
                clock += cpu_op_ns
                clock += l3_ns
                line = args[i]
                hit, victim = l3_access(line, False)
                if not hit:
                    clock = read(clock, line, core)
                    if victim is not None and victim.dirty:
                        memory_writebacks += 1
                        persist(clock, victim.line, None, core, False)
            elif kind == PK_CLWB_DIRTY:
                if clock >= bound:
                    bound = yield clock
                clock += clwb_issue_ns
                line = args[i]
                l3_clean(line)
                durable = persist(
                    clock, line, None if payloads is None else payloads[i], core
                )
                if durable > clock:
                    clock = durable
            elif kind == PK_L2_HIT:
                clock += cpu_op_ns
                clock += l2_ns
            elif kind == PK_CLWB:
                if clock >= bound:
                    bound = yield clock
                clock += clwb_issue_ns
                line = args[i]
                if l3_clean(line):
                    l3_dirty_clwbs += 1
                    durable = persist(
                        clock, line, None if payloads is None else payloads[i], core
                    )
                    if durable > clock:
                        clock = durable
            else:  # PK_L2_HIT_PUSH / PK_L3_LOOKUP_PUSH
                if clock >= bound:
                    bound = yield clock
                clock += cpu_op_ns
                victims = []
                for pushed in wbs[i]:
                    victim = l3_fill(pushed, True)
                    if victim is not None and victim.dirty:
                        victims.append(victim.line)
                if kind == PK_L2_HIT_PUSH:
                    clock += l2_ns
                else:
                    clock += l3_ns
                    line = args[i]
                    hit, victim = l3_access(line, False)
                    if victim is not None and victim.dirty:
                        victims.append(victim.line)
                    if not hit:
                        clock = read(clock, line, core)
                memory_writebacks += len(victims)
                for victim in victims:
                    persist(clock, victim, None, core, False)
        self.clock = clock
        self._txn_start = txn_start
        if memory_writebacks:
            self.system.stats.inc("hierarchy", "memory_writebacks", memory_writebacks)
        if l3_dirty_clwbs:
            self.system.stats.inc("hierarchy", "clwb_dirty", l3_dirty_clwbs)

    # Names bench/layers.py (the benchmark's per-layer table) still lists;
    # it is their only reader, and they go when that table drops them.
    run_batched = run_batched_replay
    run = run_batched_replay
    step = replay
