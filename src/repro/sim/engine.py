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

import functools
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


# The observed memory chain as float-returning calls (see bind_memory).
def _read_observed(system, t: float, line: int, core: int) -> float:
    return system.read_line(t, line, core=core).finish_time


def _persist_observed(
    system, t: float, line: int, payload=None, core: int = 0, persistent=True
) -> float:
    return system.persist_line(
        t, line, payload=payload, core=core, persistent=persistent
    ).durable_time


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
        # Hoisted timing constants: the reference step re-reads
        # config.timing.<attr> per op; the fast step uses these.
        timing = config.timing
        self._cpu_op_ns = timing.cpu_op_ns
        self._clwb_issue_ns = timing.clwb_issue_ns
        self._sfence_ns = timing.sfence_ns
        # hot_path=False swaps in the straightforward per-op implementation
        # (the differential oracle / slow benchmark leg). Instance-attribute
        # binding shadows the class method, so callers pay no dispatch.
        if not config.hot_path:
            self.step = self._step_ref  # type: ignore[method-assign]
        self.bind_memory(fast=False)

    # ------------------------------------------------------------------

    def set_measuring(self, measuring: bool) -> None:
        """Toggle transaction-latency recording (off during warmup)."""
        self._measuring = measuring

    def bind_memory(self, fast: bool) -> None:
        """Route :meth:`step`'s memory calls to the fast or observed chain.

        Both are float-returning callables with the signatures of
        :meth:`~repro.core.system.SecureMemorySystem.read_line_fast` and
        ``persist_line_fast``. The observed chain (the default) adapts
        ``read_line``/``persist_line``, which carry the tracer and crash
        probes; a run binds the fast chain only while
        :meth:`~repro.core.system.SecureMemorySystem.fast_chain_safe`
        holds.
        """
        system = self.system
        if fast:
            self._read_mem = system.read_line_fast
            self._persist_mem = system.persist_line_fast
        else:
            # Partials over the system, not bound methods of this engine:
            # an engine holding its own bound method is a reference cycle
            # that keeps every finished point's whole model alive until a
            # cyclic garbage collection.
            self._read_mem = functools.partial(_read_observed, system)
            self._persist_mem = functools.partial(_persist_observed, system)

    def step(self, op: TraceOp) -> None:
        """Execute one trace op, advancing this core's clock.

        Fast path: loads/stores drive :meth:`CacheHierarchy.access` (tuple
        result, no outcome allocation) with timing constants pre-hoisted,
        and memory calls go through the chain :meth:`bind_memory` chose.
        Arithmetic order matches :meth:`_step_ref` operation for operation,
        so clocks — and therefore all stats — are bit-identical.
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
                clock = self._read_mem(clock, line, self.core_id)
            self.clock = clock
            if writebacks:
                # Dirty last-level evictions: asynchronous from the core's
                # view (hardware write buffers), so the clock does not chase
                # them. persistent=False marks them as not-crash-critical
                # (only the SCA scheme differentiates).
                persist = self._persist_mem
                core = self.core_id
                for victim in writebacks:
                    persist(clock, victim, None, core, False)
        elif kind == OP_CLWB:
            clock = self.clock + self._clwb_issue_ns
            self.clock = clock
            line = op[1]
            if self.hierarchy.clwb(line):
                durable = self._persist_mem(
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

    def _step_ref(self, op: TraceOp) -> None:
        """Reference step: per-op attribute walks, outcome objects."""
        kind = op[0]
        timing = self.config.timing
        if kind == OP_LOAD:
            self.clock += timing.cpu_op_ns
            self._access(op[1], write=False)
        elif kind == OP_STORE:
            self.clock += timing.cpu_op_ns
            self._access(op[1], write=True)
        elif kind == OP_CLWB:
            self.clock += timing.clwb_issue_ns
            line = op[1]
            payload = op[2] if len(op) > 2 else None
            if self.hierarchy.clwb(line):
                result = self.system.persist_line(
                    self.clock, line, payload=payload, core=self.core_id
                )
                self.clock = max(self.clock, result.durable_time)
        elif kind == OP_FENCE:
            self.clock += timing.sfence_ns
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

    def _access(self, line: int, write: bool) -> None:
        outcome = (
            self.hierarchy.write_ref(line) if write else self.hierarchy.read_ref(line)
        )
        self.clock += outcome.latency_ns
        if outcome.hit_level is None:
            result = self.system.read_line(self.clock, line, core=self.core_id)
            self.clock = result.finish_time
        for victim in outcome.memory_writebacks:
            self.system.persist_line(
                self.clock, victim, core=self.core_id, persistent=False
            )

    def run(self, ops) -> None:
        """Replay a whole op sequence."""
        step = self.step
        for op in ops:
            step(op)

    def run_batched(self, arrays, chunk: int = 1024) -> None:
        """Replay pre-decoded :class:`~repro.sim.batch.TraceArrays` in
        chunks of ``chunk`` ops.

        The inner loop is the fast :meth:`step` with everything per-op
        hoisted: no method dispatch, no tuple indexing, no ``self.clock``
        attribute traffic (the clock lives in a local and is published at
        chunk boundaries), no per-op tracer/measuring re-reads. The
        arithmetic sequence matches :meth:`step` operation for operation
        — :meth:`step` never *reads* ``self.clock`` mid-op and the memory
        system takes the clock as an argument — so results are
        bit-identical for every chunk size (``tests/sim/test_batch.py``).
        """
        if chunk < 1:
            raise SimulationError(f"chunk must be >= 1, got {chunk}")
        kinds = arrays.kinds
        args = arrays.args
        payloads = arrays.payloads
        n = arrays.n
        access = self.hierarchy.access
        clwb = self.hierarchy.clwb
        read_line = self.system.read_line
        persist = self.system.persist_line
        core = self.core_id
        cpu_op_ns = self._cpu_op_ns
        clwb_issue_ns = self._clwb_issue_ns
        sfence_ns = self._sfence_ns
        txn_latencies = self.txn_latencies
        tracer = self.tracer
        tracer_enabled = tracer.enabled
        measuring = self._measuring
        store_k = OP_STORE
        clwb_k = OP_CLWB
        fence_k = OP_FENCE
        begin_k = OP_TXN_BEGIN
        end_k = OP_TXN_END
        clock = self.clock
        txn_start = self._txn_start
        start = 0
        while start < n:
            stop = start + chunk
            if stop > n:
                stop = n
            for i in range(start, stop):
                kind = kinds[i]
                if kind <= store_k:  # OP_LOAD or OP_STORE
                    clock += cpu_op_ns
                    line = args[i]
                    hit_level, latency, writebacks = access(line, kind == store_k)
                    clock += latency
                    if hit_level is None:
                        clock = read_line(clock, line, core=core).finish_time
                    if writebacks:
                        for victim in writebacks:
                            persist(clock, victim, core=core, persistent=False)
                elif kind == clwb_k:
                    clock += clwb_issue_ns
                    line = args[i]
                    if clwb(line):
                        result = persist(
                            clock,
                            line,
                            payload=None if payloads is None else payloads[i],
                            core=core,
                        )
                        if result.durable_time > clock:
                            clock = result.durable_time
                elif kind == fence_k:
                    clock += sfence_ns
                elif kind == begin_k:
                    txn_start = clock
                elif kind == end_k:
                    if txn_start is not None:
                        if measuring:
                            txn_latencies.append(clock - txn_start)
                        if tracer_enabled:
                            tracer.txn(txn_start, clock, core)
                    txn_start = None
                else:  # OP_COMPUTE (build_arrays rejects anything else)
                    clock += args[i]
            self.clock = clock
            start = stop
        self.clock = clock
        self._txn_start = txn_start

    def run_batched_record(
        self, arrays, rec_kinds, rec_lats, rec_wbs, chunk: int = 1024
    ) -> None:
        """:meth:`run_batched`, additionally recording hierarchy outcomes.

        Appends one resolved ``BK_*`` code to ``rec_kinds`` (a
        ``bytearray``) and one SRAM latency to ``rec_lats`` per op, and
        stores write-back victim tuples sparsely in ``rec_wbs`` (op index
        -> tuple). The recording is pure observation: the call sequence
        and arithmetic are exactly :meth:`run_batched`'s, so a recording
        run is bit-identical to a plain one, and the recorded stream
        drives :meth:`run_batched_replay` for later runs of the same
        (trace, cache geometry).
        """
        if chunk < 1:
            raise SimulationError(f"chunk must be >= 1, got {chunk}")
        kinds = arrays.kinds
        args = arrays.args
        payloads = arrays.payloads
        n = arrays.n
        access = self.hierarchy.access
        clwb = self.hierarchy.clwb
        read_line = self.system.read_line
        persist = self.system.persist_line
        core = self.core_id
        cpu_op_ns = self._cpu_op_ns
        clwb_issue_ns = self._clwb_issue_ns
        sfence_ns = self._sfence_ns
        txn_latencies = self.txn_latencies
        tracer = self.tracer
        tracer_enabled = tracer.enabled
        measuring = self._measuring
        store_k = OP_STORE
        clwb_k = OP_CLWB
        fence_k = OP_FENCE
        begin_k = OP_TXN_BEGIN
        end_k = OP_TXN_END
        kinds_append = rec_kinds.append
        lats_append = rec_lats.append
        base = len(rec_kinds)
        clock = self.clock
        txn_start = self._txn_start
        start = 0
        while start < n:
            stop = start + chunk
            if stop > n:
                stop = n
            for i in range(start, stop):
                kind = kinds[i]
                if kind <= store_k:  # OP_LOAD or OP_STORE
                    clock += cpu_op_ns
                    line = args[i]
                    hit_level, latency, writebacks = access(line, kind == store_k)
                    clock += latency
                    lats_append(latency)
                    if hit_level is None:
                        clock = read_line(clock, line, core=core).finish_time
                        code = BK_MEM_MISS
                    else:
                        code = BK_MEM_HIT
                    if writebacks:
                        rec_wbs[base + i] = tuple(writebacks)
                        code = BK_MEM_MISS_WB if code == BK_MEM_MISS else BK_MEM_HIT_WB
                        for victim in writebacks:
                            persist(clock, victim, core=core, persistent=False)
                    kinds_append(code)
                elif kind == clwb_k:
                    clock += clwb_issue_ns
                    line = args[i]
                    lats_append(0.0)
                    if clwb(line):
                        kinds_append(BK_CLWB_DIRTY)
                        result = persist(
                            clock,
                            line,
                            payload=None if payloads is None else payloads[i],
                            core=core,
                        )
                        if result.durable_time > clock:
                            clock = result.durable_time
                    else:
                        kinds_append(BK_CLWB_CLEAN)
                elif kind == fence_k:
                    clock += sfence_ns
                    kinds_append(BK_FENCE)
                    lats_append(0.0)
                elif kind == begin_k:
                    txn_start = clock
                    kinds_append(BK_TXN_BEGIN)
                    lats_append(0.0)
                elif kind == end_k:
                    if txn_start is not None:
                        if measuring:
                            txn_latencies.append(clock - txn_start)
                        if tracer_enabled:
                            tracer.txn(txn_start, clock, core)
                    txn_start = None
                    kinds_append(BK_TXN_END)
                    lats_append(0.0)
                else:  # OP_COMPUTE (build_arrays rejects anything else)
                    clock += args[i]
                    kinds_append(BK_COMPUTE)
                    lats_append(0.0)
            self.clock = clock
            start = stop
        self.clock = clock
        self._txn_start = txn_start

    def run_batched_replay(self, arrays, segment, chunk: int = 1024) -> None:
        """Replay a recorded hierarchy-outcome ``segment`` over ``arrays``.

        The cache walk is skipped entirely: each op's resolved kind, SRAM
        latency, and write-back victims come from the recording, so an
        SRAM-hit load/store costs two float adds and nothing else. Memory
        traffic (misses, dirty clwbs, write-backs) is driven at exactly
        the clocks and in exactly the order the recording run drove it,
        and the recorded cache-stat delta is applied by the caller
        (:meth:`repro.sim.simulator.Simulator.run`) — so results are
        bit-identical to a walked run.

        When :meth:`~repro.core.system.SecureMemorySystem.fast_chain_safe`
        holds, memory traffic goes through the allocation-free fast chain
        (:meth:`~repro.core.system.SecureMemorySystem.read_line_fast` /
        ``persist_line_fast``), which skips per-op tracer probes, crash
        probes and result-object construction — all unobservable then.
        """
        if chunk < 1:
            raise SimulationError(f"chunk must be >= 1, got {chunk}")
        if segment.kinds is not None and len(segment.kinds) != arrays.n:
            raise SimulationError(
                "outcome segment does not match op arrays "
                f"({len(segment.kinds)} outcomes, {arrays.n} ops)"
            )
        args = arrays.args
        payloads = arrays.payloads
        n = arrays.n
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
        self.bind_memory(self.system.fast_chain_safe())
        read = self._read_mem
        persist = self._persist_mem
        clock = self.clock
        txn_start = self._txn_start
        start = 0
        while start < n:
            stop = start + chunk
            if stop > n:
                stop = n
            for i in range(start, stop):
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
            start = stop
        self.clock = clock
        self._txn_start = txn_start
