"""Multi-programmed simulation (paper Figure 14).

``N`` programs run the same workload on different cores, each with a
private L1/L2 and its own physical region (footprint = one bank's worth of
memory, the paper's setup), sharing the L3, the memory controller, the
write queue, and the counter cache. Cores are interleaved by local time:
at each step the core with the smallest clock executes its next op, which
is the standard conservative interleaving for trace-driven multi-core
simulation. With nothing observing the run (see
:meth:`~repro.core.system.SecureMemorySystem.fast_chain_safe`), the cores
drive the shared system through its fast chain.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import List, Optional

from repro.cache.sram import SetAssociativeCache
from repro.common.config import SimConfig
from repro.common.errors import ConfigError
from repro.common.stats import Stats
from repro.core.schemes import Scheme, scheme_config
from repro.core.system import SecureMemorySystem
from repro.obs.tracer import NULL_TRACER
from repro.sim.engine import CoreEngine
from repro.sim.metrics import SimResult
from repro.sim.trace_cache import cached_generate_trace, use_store
from repro.txn.persist import TraceOp


class MulticoreSimulator:
    """N cores over one shared memory system."""

    def __init__(self, config: SimConfig, n_cores: int, tracer=None):
        if n_cores < 1:
            raise ConfigError("need at least one core")
        self.config = config
        self.n_cores = n_cores
        self.stats = Stats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.system = SecureMemorySystem(config, stats=self.stats, tracer=self.tracer)
        shared_l3 = SetAssociativeCache(config.l3, self.stats, "l3")
        self.engines = [
            CoreEngine(
                core,
                config,
                self.system,
                self.stats,
                shared_l3=shared_l3,
                tracer=self.tracer,
            )
            for core in range(n_cores)
        ]

    def run(self, traces: List[List[TraceOp]]) -> SimResult:
        """Interleave one op stream per core by local time."""
        if len(traces) != self.n_cores:
            raise ConfigError(
                f"{self.n_cores} cores but {len(traces)} traces supplied"
            )
        fast = self.system.fast_chain_safe()
        for engine in self.engines:
            engine.bind_memory(fast)
        steps = [engine.step for engine in self.engines]
        cursors = [0] * self.n_cores
        # The core with the smallest local clock (and ops left) steps;
        # equal clocks go to the lowest core index. Only the stepping
        # core's clock moves, so a heap keyed (clock, core) keeps the
        # order with one O(log cores) update per op.
        ready = [
            (engine.clock, core)
            for core, engine in enumerate(self.engines)
            if traces[core]
        ]
        heapq.heapify(ready)
        while ready:
            core = ready[0][1]
            ops = traces[core]
            cursor = cursors[core]
            steps[core](ops[cursor])
            cursor += 1
            cursors[core] = cursor
            if cursor < len(ops):
                heapq.heapreplace(ready, (self.engines[core].clock, core))
            else:
                heapq.heappop(ready)
        drain_finish = self.system.drain()
        total = max(max(e.clock for e in self.engines), drain_finish)
        latencies: List[float] = []
        for engine in self.engines:
            latencies.extend(engine.txn_latencies)
        return SimResult(
            total_time_ns=total, txn_latencies=latencies, stats=self.stats
        )


def simulate_multiprogrammed(
    workload: "str | List[str]",
    scheme: Scheme,
    n_programs: Optional[int] = None,
    n_ops: int = 100,
    request_size: int = 1024,
    footprint: Optional[int] = None,
    base_config: Optional[SimConfig] = None,
    seed: int = 1,
    fidelity: str = "timing",
    tracer=None,
) -> SimResult:
    """The Figure 14 kernel: N programs on N cores.

    ``workload`` is either one name (the paper's homogeneous setup — N
    copies of the same program) or a list of names, one per core, for
    heterogeneous mixes. Each program's footprint defaults to one bank's
    worth of capacity and its heap sits in its own region of the physical
    space, so with ``n_programs == n_banks`` every bank is busy — the
    XBank worst case the paper calls out.

    ``fidelity`` mirrors :func:`~repro.sim.simulator.simulate_workload`:
    ``"timing"`` (default) skips functional byte work, ``"full"`` carries
    payloads through the crypto path; both produce identical timing/stats.
    An enabled ``tracer`` observes the run on the regular chain, again
    with identical timing/stats.
    """
    if isinstance(workload, str):
        if n_programs is None:
            raise ConfigError("n_programs required with a single workload name")
        workloads = [workload] * n_programs
    else:
        workloads = list(workload)
        if n_programs is not None and n_programs != len(workloads):
            raise ConfigError(
                f"n_programs={n_programs} but {len(workloads)} workloads given"
            )
        n_programs = len(workloads)
    if n_programs < 1:
        raise ConfigError("need at least one program")

    cfg = dataclasses.replace(scheme_config(scheme, base_config), fidelity=fidelity)
    use_store(cfg.outcome_store)
    amap = cfg.address_map()
    if footprint is None:
        footprint = amap.bank_size
    region = amap.capacity // n_programs
    traces = []
    for program, name in enumerate(workloads):
        trace = cached_generate_trace(
            name,
            n_ops=n_ops,
            request_size=request_size,
            footprint=min(footprint, region // 4),
            heap_base=program * region,
            heap_capacity=region,
            seed=seed + program,
            track_payloads=cfg.functional,
        )
        traces.append(trace.ops)
    sim = MulticoreSimulator(cfg, n_cores=n_programs, tracer=tracer)
    return sim.run(traces)
