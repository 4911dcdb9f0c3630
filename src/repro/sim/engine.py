"""The per-core trace replay engine.

One :class:`CoreEngine` owns a core's clock and private cache hierarchy and
replays trace ops against the shared :class:`~repro.core.system.
SecureMemorySystem`:

* **loads/stores** walk the hierarchy; misses become memory reads (with
  the counter-cache/OTP overlap inside the system); dirty last-level
  evictions become memory writes through the full encryption path —
  fire-and-forget from the core's perspective, like a hardware write
  buffer;
* **clwb** flushes a dirty line into the persistence domain; the core
  waits for the *append* (durability under ADR), which is where full-
  write-queue stalls — the paper's central bottleneck — surface;
* **sfence** adds the fence cost (appends are already ordered here);
* **txn markers** delimit per-transaction latency measurement.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.sram import SetAssociativeCache
from repro.common.config import SimConfig
from repro.common.errors import SimulationError
from repro.common.stats import Stats
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
)
from repro.txn.persist import (
    OP_CLWB,
    OP_COMPUTE,
    OP_FENCE,
    OP_LOAD,
    OP_STORE,
    OP_TXN_BEGIN,
    OP_TXN_END,
    TraceOp,
)

#: Resolved outcome codes of the ops the hierarchy never sees.
_BK_OF_OP = {
    OP_FENCE: BK_FENCE,
    OP_TXN_BEGIN: BK_TXN_BEGIN,
    OP_TXN_END: BK_TXN_END,
    OP_COMPUTE: BK_COMPUTE,
}


class CoreEngine:
    """Replays one op stream on one core."""

    def __init__(
        self,
        core_id: int,
        config: SimConfig,
        system: SecureMemorySystem,
        stats: Stats,
        shared_l3: Optional[SetAssociativeCache] = None,
        tracer=NULL_TRACER,
    ):
        self.core_id = core_id
        self.config = config
        self.system = system
        self.stats = stats
        self.tracer = tracer
        prefix = f"core{core_id}." if shared_l3 is not None else ""
        self.hierarchy = CacheHierarchy(
            l1=config.l1,
            l2=config.l2,
            l3=config.l3,
            timing=config.timing,
            stats=stats,
            shared_l3=shared_l3,
            name_prefix=prefix,
        )
        self.clock: float = 0.0
        self.txn_latencies: List[float] = []
        self._txn_start: Optional[float] = None
        self._measuring = True
        # Hoisted timing constants (TimingConfig properties, read per op).
        timing = config.timing
        self._cpu_op_ns = timing.cpu_op_ns
        self._clwb_issue_ns = timing.clwb_issue_ns
        self._sfence_ns = timing.sfence_ns

    # ------------------------------------------------------------------

    def set_measuring(self, measuring: bool) -> None:
        """Toggle transaction-latency recording (off during warmup)."""
        self._measuring = measuring

    def step(self, op: TraceOp) -> None:
        """Execute one trace op, advancing this core's clock.

        The multiprogrammed per-op body: with a shared L3 the cache walk
        depends on how the cores interleave, so it runs op by op next to
        the memory calls. Single-core runs split the walk off instead
        (:meth:`run_batched_record`, then :meth:`run_batched_replay`),
        with the same arithmetic in the same order.
        """
        kind = op[0]
        if kind == OP_LOAD or kind == OP_STORE:
            clock = self.clock + self._cpu_op_ns
            line = op[1]
            hit_level, latency, writebacks = self.hierarchy.access(
                line, kind == OP_STORE
            )
            clock += latency
            if hit_level is None:
                # Memory access on the critical path (write-allocate fetch
                # for stores, demand read for loads).
                clock = self.system.read_line(clock, line, self.core_id)
            self.clock = clock
            if writebacks:
                # Dirty last-level evictions: asynchronous from the core's
                # view (hardware write buffers), so the clock does not chase
                # them. persistent=False marks them as not-crash-critical
                # (only the SCA scheme differentiates).
                persist = self.system.persist_line
                core = self.core_id
                for victim in writebacks:
                    persist(clock, victim, None, core, False)
        elif kind == OP_CLWB:
            clock = self.clock + self._clwb_issue_ns
            self.clock = clock
            line = op[1]
            if self.hierarchy.clwb(line):
                durable = self.system.persist_line(
                    clock, line, op[2] if len(op) > 2 else None, self.core_id
                )
                # Durability is append time (ADR); the core resumes once
                # the line is accepted into the write queue.
                if durable > clock:
                    self.clock = durable
        elif kind == OP_FENCE:
            self.clock += self._sfence_ns
        elif kind == OP_TXN_BEGIN:
            self._txn_start = self.clock
        elif kind == OP_TXN_END:
            if self._txn_start is not None and self._measuring:
                self.txn_latencies.append(self.clock - self._txn_start)
            if self._txn_start is not None and self.tracer.enabled:
                self.tracer.txn(self._txn_start, self.clock, self.core_id)
            self._txn_start = None
        elif kind == OP_COMPUTE:
            self.clock += op[1]
        else:
            raise SimulationError(f"unknown trace op {op!r}")

    def run(self, ops) -> None:
        """Replay a whole op sequence."""
        step = self.step
        for op in ops:
            step(op)

    def run_batched_record(self, arrays, rec_kinds, rec_lats, rec_wbs) -> None:
        """Walk the cache hierarchy over ``arrays``, recording its outcomes.

        A hierarchy-only pass: no clock, no memory calls. Single-core, the
        walk depends only on the op sequence and the cache geometry (see
        :mod:`repro.sim.batch`), so it can run ahead of the timing replay.
        Appends one resolved ``BK_*`` code to ``rec_kinds`` (a
        ``bytearray``) and one SRAM latency to ``rec_lats`` per op, and
        stores write-back victim tuples sparsely in ``rec_wbs`` (op index
        -> tuple). The recording drives :meth:`run_batched_replay`, here
        and in later runs of the same (trace, cache geometry).
        """
        kinds = arrays.kinds
        args = arrays.args
        access = self.hierarchy.access
        clwb = self.hierarchy.clwb
        kinds_append = rec_kinds.append
        lats_append = rec_lats.append
        base = len(rec_kinds)
        store_k = OP_STORE
        clwb_k = OP_CLWB
        for i in range(arrays.n):
            kind = kinds[i]
            if kind <= store_k:  # OP_LOAD or OP_STORE
                hit_level, latency, writebacks = access(args[i], kind == store_k)
                lats_append(latency)
                if writebacks:
                    rec_wbs[base + i] = tuple(writebacks)
                    kinds_append(
                        BK_MEM_MISS_WB if hit_level is None else BK_MEM_HIT_WB
                    )
                else:
                    kinds_append(BK_MEM_MISS if hit_level is None else BK_MEM_HIT)
            else:
                lats_append(0.0)
                if kind == clwb_k:
                    kinds_append(BK_CLWB_DIRTY if clwb(args[i]) else BK_CLWB_CLEAN)
                else:
                    kinds_append(_BK_OF_OP[kind])

    def run_batched_replay(self, arrays, segment) -> None:
        """Replay a recorded hierarchy-outcome ``segment`` over ``arrays``.

        The cache walk is skipped entirely: each op's resolved kind, SRAM
        latency, and write-back victims come from the recording, so an
        SRAM-hit load/store costs two float adds and nothing else. Memory
        traffic (misses, dirty clwbs, write-backs) is driven at exactly
        the clocks and in exactly the order :meth:`step` would drive it,
        and the recorded cache-stat delta is applied by the caller when
        the walk ran elsewhere (:meth:`repro.sim.simulator.Simulator.run`).
        """
        if len(segment.kinds) != arrays.n:
            raise SimulationError(
                "outcome segment does not match op arrays "
                f"({len(segment.kinds)} outcomes, {arrays.n} ops)"
            )
        args = arrays.args
        payloads = arrays.payloads
        bkinds = segment.kinds
        lats = segment.lats
        wbs = segment.wbs
        core = self.core_id
        cpu_op_ns = self._cpu_op_ns
        clwb_issue_ns = self._clwb_issue_ns
        sfence_ns = self._sfence_ns
        txn_latencies = self.txn_latencies
        tracer = self.tracer
        tracer_enabled = tracer.enabled
        measuring = self._measuring
        read = self.system.read_line
        persist = self.system.persist_line
        clock = self.clock
        txn_start = self._txn_start
        for i in range(arrays.n):
            kind = bkinds[i]
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
                    if measuring:
                        txn_latencies.append(clock - txn_start)
                    if tracer_enabled:
                        tracer.txn(txn_start, clock, core)
                txn_start = None
            elif kind == BK_COMPUTE:
                clock += args[i]
            elif kind == BK_CLWB_CLEAN:
                clock += clwb_issue_ns
            else:  # BK_MEM_HIT_WB / BK_MEM_MISS_WB
                clock += cpu_op_ns
                clock += lats[i]
                if kind == BK_MEM_MISS_WB:
                    clock = read(clock, args[i], core)
                for victim in wbs[i]:
                    persist(clock, victim, None, core, False)
        self.clock = clock
        self._txn_start = txn_start

    # Names bench/layers.py (the benchmark's per-layer table) still lists;
    # it is their only reader, and they go when that table drops them.
    run_batched = run_batched_replay
