"""Multi-programmed simulation (paper Figure 14).

``N`` programs run the same workload on different cores, each with a
private L1/L2 and its own physical region (footprint = one bank's worth of
memory, the paper's setup), sharing the L3, the memory controller, the
write queue, and the counter cache.

A core's L1/L2 state depends only on its own ops (see
:mod:`repro.cache.hierarchy`), so :func:`record_private_walk` records it
once per (trace, L1/L2 geometry), with an
:class:`~repro.cache.hierarchy.L3EventSink` in the L3's place, and the
recording rides on the cached trace so the seven schemes of a cell share
it. Each core then runs the one timing loop,
:meth:`~repro.sim.engine.CoreEngine.replay`, which applies the core's L3
events — dirty push-downs, L2-miss lookups, clwb's clean — to the shared
L3 as it goes.

Cores interleave by local time, the standard conservative interleaving
for trace-driven multi-core simulation: an op that touches the L3, the
memory system or the tracer runs only once its core holds the smallest
``(clock, core)`` key, so equal clocks go to the lowest core index. A heap
holds the keys of the waiting cores; the core on top runs until such an
op's clock reaches the next core's. Private ops (L1/L2 hits, compute,
fences, txn markers) touch nothing another core can see, so they run
past that bound.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from typing import List, Optional, Sequence

from repro.cache.hierarchy import CacheHierarchy, L3EventSink
from repro.cache.sram import SetAssociativeCache
from repro.common.config import SimConfig
from repro.common.errors import ConfigError
from repro.common.stats import Stats
from repro.core.schemes import Scheme, scheme_config
from repro.core.system import SecureMemorySystem
from repro.obs.tracer import NULL_TRACER
from repro.sim.batch import (
    BK_OF_OP,
    PK_CLWB,
    PK_CLWB_DIRTY,
    PK_L1_HIT,
    PK_L2_HIT,
    PK_L2_HIT_PUSH,
    PK_L3_LOOKUP,
    PK_L3_LOOKUP_PUSH,
    OutcomeSegment,
    ReplayOutcomes,
    TraceArrays,
    build_arrays,
)
from repro.sim.engine import CoreEngine
from repro.sim.metrics import SimResult
from repro.sim.trace_cache import (
    cached_generate_trace,
    private_walk_key,
    store_trace_outcomes,
    trace_arrays,
    trace_outcomes,
)
from repro.txn.persist import OP_CLWB, OP_STORE, TraceOp

#: Stat namespaces of a private walk that belong to one core.
_PRIVATE_NAMESPACES = ("l1", "l2")

#: Private-walk code of a load/store that pushed nothing into the L3, by
#: the level it hit (None: missed L1 and L2).
_PK_OF_LEVEL = {1: PK_L1_HIT, 2: PK_L2_HIT, None: PK_L3_LOOKUP}


def record_private_walk(config: SimConfig, arrays: TraceArrays) -> ReplayOutcomes:
    """Record one core's private L1/L2 walk over ``arrays``.

    A hierarchy-only pass, like the single-core
    :meth:`~repro.sim.engine.CoreEngine.run_batched_record`, but the L3 is
    an :class:`~repro.cache.hierarchy.L3EventSink`: each op gets a
    ``PK_*`` code, which implies its SRAM latency, and ``PK_*_PUSH`` ops
    the lines they pushed into the L3. The stats are a scratch registry,
    so the recording depends only on the ops and the L1/L2 geometry and
    replays on any core: its stat delta names the ``l1``/``l2``
    namespaces without the core prefix.
    """
    stats = Stats()
    sink = L3EventSink(config.l3)
    hierarchy = CacheHierarchy(
        config.l1, config.l2, config.l3, config.timing, stats, shared_l3=sink
    )
    access = hierarchy.access
    clwb = hierarchy.clwb
    pushed = sink.pushed
    kinds = arrays.kinds
    args = arrays.args
    rec = bytearray(arrays.n)
    pushes: dict = {}
    for i in range(arrays.n):
        kind = kinds[i]
        if kind <= OP_STORE:  # OP_LOAD or OP_STORE
            hit_level = access(args[i], kind == OP_STORE)[0]
            if pushed:
                pushes[i] = tuple(pushed)
                pushed.clear()
                rec[i] = PK_L3_LOOKUP_PUSH if hit_level is None else PK_L2_HIT_PUSH
            else:
                rec[i] = _PK_OF_LEVEL[hit_level]
        elif kind == OP_CLWB:
            rec[i] = PK_CLWB_DIRTY if clwb(args[i]) else PK_CLWB
        else:
            rec[i] = BK_OF_OP[kind]
    main = OutcomeSegment(bytes(rec), None, pushes)
    return ReplayOutcomes(main, None, tuple(stats.snapshot().items()))


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
        self.l3 = SetAssociativeCache(config.l3, self.stats, "l3")
        self.engines = [
            CoreEngine(core, config, self.system, tracer=self.tracer)
            for core in range(n_cores)
        ]
        #: The private walks the last :meth:`run` recorded, per core (None
        #: where it was handed one).
        self.recorded_walks: List[Optional[ReplayOutcomes]] = [None] * n_cores

    def run(
        self,
        traces: Sequence[Sequence[TraceOp]],
        arrays: Optional[Sequence[Optional[TraceArrays]]] = None,
        walks: Optional[Sequence[Optional[ReplayOutcomes]]] = None,
    ) -> SimResult:
        """Interleave one op stream per core by local time.

        ``arrays`` and ``walks`` hold, per core, the decoded ops and the
        recorded private walk (:func:`record_private_walk`) of its trace,
        or None; what is missing is decoded or recorded here, and new
        recordings are kept in :attr:`recorded_walks`.
        """
        n_cores = self.n_cores
        if len(traces) != n_cores:
            raise ConfigError(f"{n_cores} cores but {len(traces)} traces supplied")
        self.recorded_walks = [None] * n_cores
        replays = []
        for core, engine in enumerate(self.engines):
            ops = arrays[core] if arrays is not None else None
            if ops is None:
                ops = build_arrays(traces[core])
            walk = walks[core] if walks is not None else None
            if walk is None:
                walk = self.recorded_walks[core] = record_private_walk(self.config, ops)
            prefix = f"core{core}."
            for (space, counter), delta in walk.stat_delta:
                if space in _PRIVATE_NAMESPACES:
                    space = prefix + space
                self.stats.inc(space, counter, delta)
            replays.append(engine.replay(ops, walk.main, self.l3, bound=-math.inf))
        # Private ops up to each core's first shared one run now; the heap
        # orders the rest.
        ready = []
        for core, replay in enumerate(replays):
            clock = next(replay, None)
            if clock is not None:
                ready.append((clock, core))
        heapq.heapify(ready)
        while ready:
            core = ready[0][1]
            # Run until a shared op's clock reaches the next core's; on a
            # tie the core goes back on the heap, whose (clock, core)
            # order then decides.
            if len(ready) == 1:
                bound = math.inf
            elif len(ready) == 2:
                bound = ready[1][0]
            else:
                bound = min(ready[1][0], ready[2][0])
            try:
                clock = replays[core].send(bound)
            except StopIteration:
                heapq.heappop(ready)
            else:
                heapq.heapreplace(ready, (clock, core))
        drain_finish = self.system.drain()
        total = max(max(e.clock for e in self.engines), drain_finish)
        latencies: List[float] = []
        for engine in self.engines:
            latencies.extend(engine.txn_latencies)
        return SimResult(
            total_time_ns=total, txn_latencies=latencies, stats=self.stats
        )


def simulate_multiprogrammed(
    workload: str,
    scheme: Scheme,
    n_programs: int,
    n_ops: int = 100,
    request_size: int = 1024,
    footprint: Optional[int] = None,
    base_config: Optional[SimConfig] = None,
    seed: int = 1,
    fidelity: str = "timing",
    tracer=None,
) -> SimResult:
    """The Figure 14 kernel: N programs on N cores.

    The paper's homogeneous setup: ``n_programs`` copies of the
    ``workload`` program, each with its own seed (``seed + program``).
    Each program's footprint defaults to one bank's worth of capacity and
    its heap sits in its own region of the physical space, so with
    ``n_programs == n_banks`` every bank is busy — the XBank worst case
    the paper calls out.

    ``fidelity`` mirrors :func:`~repro.sim.simulator.simulate_workload`:
    ``"timing"`` (default) skips functional byte work, ``"full"`` carries
    payloads through the crypto path; both produce identical timing/stats.
    An enabled ``tracer`` observes the run without changing its
    timing/stats.

    Traces, their decoded arrays and each core's recorded private walk
    are memoized per process (:mod:`repro.sim.trace_cache`), so the
    schemes of one cell generate, decode and walk each core's trace once.
    """
    if n_programs < 1:
        raise ConfigError("need at least one program")

    cfg = dataclasses.replace(scheme_config(scheme, base_config), fidelity=fidelity)
    amap = cfg.address_map()
    if footprint is None:
        footprint = amap.bank_size
    region = amap.capacity // n_programs
    traces = [
        cached_generate_trace(
            workload,
            n_ops=n_ops,
            request_size=request_size,
            footprint=min(footprint, region // 4),
            heap_base=program * region,
            heap_capacity=region,
            seed=seed + program,
            track_payloads=cfg.functional,
        )
        for program in range(n_programs)
    ]
    key = private_walk_key(cfg)
    walks = [trace_outcomes(trace, key) for trace in traces]
    sim = MulticoreSimulator(cfg, n_cores=n_programs, tracer=tracer)
    result = sim.run(
        [trace.ops for trace in traces],
        arrays=[trace_arrays(trace) for trace in traces],
        walks=walks,
    )
    for trace, recorded in zip(traces, sim.recorded_walks):
        if recorded is not None:
            store_trace_outcomes(trace, key, recorded)
    return result
