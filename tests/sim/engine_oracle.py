"""The per-op reference loop: the oracle for the recorded-walk replay.

Production runs split each core's CPU cache walk from its timing
(:meth:`repro.sim.engine.CoreEngine.run_batched_record`, then the timing
loop :meth:`~repro.sim.engine.CoreEngine.replay`); multicore, only the
private L1/L2 walk is recorded
(:func:`repro.sim.multicore.record_private_walk`) and the shared L3's
part runs live. This
module keeps the loop that split replaced: every op walks the whole
hierarchy next to its memory calls, and cores interleave one op at a
time through a ``(clock, core)`` heap, equal clocks to the lowest core.
The differential tests in ``tests/sim/`` compare the two.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.sram import SetAssociativeCache
from repro.common.config import SimConfig
from repro.common.errors import SimulationError
from repro.common.stats import Stats
from repro.core.system import SecureMemorySystem
from repro.obs.tracer import NULL_TRACER
from repro.sim.metrics import SimResult
from repro.sim.simulator import Simulator
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


class OracleCore:
    """One core executing its trace op by op: walk, then memory calls."""

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
        self.system = system
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
        self.clock = 0.0
        self.txn_latencies: List[float] = []
        self._txn_start: Optional[float] = None
        self._measuring = True
        self._cpu_op_ns = config.timing.cpu_op_ns
        self._clwb_issue_ns = config.timing.clwb_issue_ns
        self._sfence_ns = config.timing.sfence_ns
        #: clwbs whose only dirty copy was in the L3 (differential coverage).
        self.l3_only_dirty_clwbs = 0

    def set_measuring(self, measuring: bool) -> None:
        self._measuring = measuring

    def step(self, op: TraceOp) -> None:
        """Execute one trace op, advancing this core's clock."""
        kind = op[0]
        if kind == OP_LOAD or kind == OP_STORE:
            clock = self.clock + self._cpu_op_ns
            line = op[1]
            hit_level, latency, writebacks = self.hierarchy.access(
                line, kind == OP_STORE
            )
            clock += latency
            if hit_level is None:
                clock = self.system.read_line(clock, line, self.core_id)
            self.clock = clock
            for victim in writebacks:
                self.system.persist_line(clock, victim, None, self.core_id, False)
        elif kind == OP_CLWB:
            clock = self.clock + self._clwb_issue_ns
            self.clock = clock
            line = op[1]
            hierarchy = self.hierarchy
            if not (hierarchy.l1.is_dirty(line) or hierarchy.l2.is_dirty(line)):
                self.l3_only_dirty_clwbs += hierarchy.l3.is_dirty(line)
            if hierarchy.clwb(line):
                durable = self.system.persist_line(
                    clock, line, op[2] if len(op) > 2 else None, self.core_id
                )
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

    def run(self, ops: Sequence[TraceOp]) -> None:
        for op in ops:
            self.step(op)


def run_single(
    config: SimConfig, ops: Sequence[TraceOp], warmup_ops: Sequence[TraceOp] = ()
) -> SimResult:
    """A single-core point through the per-op loop, on a fresh
    :class:`~repro.sim.simulator.Simulator`'s memory system."""
    sim = Simulator(config)
    core = OracleCore(0, config, sim.system, sim.stats)
    if warmup_ops:
        core.set_measuring(False)
        core.run(warmup_ops)
        core.set_measuring(True)
        sim._reset_warmup_stats()
    core.run(ops)
    total = max(core.clock, sim.system.drain())
    return SimResult(
        total_time_ns=total, txn_latencies=core.txn_latencies, stats=sim.stats
    )


class OracleMulticore:
    """N oracle cores over one shared memory system and L3."""

    def __init__(self, config: SimConfig, n_cores: int, tracer=None):
        self.stats = Stats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.system = SecureMemorySystem(config, stats=self.stats, tracer=self.tracer)
        shared_l3 = SetAssociativeCache(config.l3, self.stats, "l3")
        self.cores = [
            OracleCore(core, config, self.system, self.stats, shared_l3, self.tracer)
            for core in range(n_cores)
        ]

    def run(self, traces: Sequence[Sequence[TraceOp]]) -> SimResult:
        """The core with the smallest ``(clock, core)`` runs one op."""
        cursors = [0] * len(self.cores)
        ready = [
            (core.clock, index)
            for index, core in enumerate(self.cores)
            if traces[index]
        ]
        heapq.heapify(ready)
        while ready:
            index = ready[0][1]
            ops = traces[index]
            self.cores[index].step(ops[cursors[index]])
            cursors[index] += 1
            if cursors[index] < len(ops):
                heapq.heapreplace(ready, (self.cores[index].clock, index))
            else:
                heapq.heappop(ready)
        drain_finish = self.system.drain()
        total = max(max(core.clock for core in self.cores), drain_finish)
        latencies: List[float] = []
        for core in self.cores:
            latencies.extend(core.txn_latencies)
        return SimResult(total_time_ns=total, txn_latencies=latencies, stats=self.stats)
