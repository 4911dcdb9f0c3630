"""Randomized differential: the multicore replay against the per-op oracle.

Multicore runs record each core's private L1/L2 walk once and apply only
its L3 events live (:mod:`repro.sim.multicore`). The Figure 14 grids
never reach most of those L3 paths — no L3 hits, no L2 evictions, every
clwb dirty in L1 — so their golden digests cannot catch a wrong replay.
These cases run synthetic per-core traces over tiny L1/L2/L3 geometries,
with stores left unflushed and lines shared across cores, on 1-8 cores
under every evaluated scheme, both fidelities, traced and untraced. Each
must match :class:`tests.sim.engine_oracle.OracleMulticore` — the per-op
walk in a ``(clock, core)`` heap — on total time, every transaction
latency, every stats counter and the tracer's event stream, and the
cases together must reach every L3 path and every private-walk code.
"""

import dataclasses
import random

import pytest

from repro.common.config import CacheConfig, SimConfig
from repro.core.schemes import EVALUATED_SCHEMES, scheme_config
from repro.obs.tracer import Tracer
from repro.sim.batch import (
    PK_CLWB,
    PK_CLWB_DIRTY,
    PK_L1_HIT,
    PK_L2_HIT,
    PK_L2_HIT_PUSH,
    PK_L3_LOOKUP,
    PK_L3_LOOKUP_PUSH,
    build_arrays,
)
from repro.sim.multicore import MulticoreSimulator, record_private_walk
from repro.txn.persist import (
    OP_CLWB,
    OP_COMPUTE,
    OP_FENCE,
    OP_LOAD,
    OP_STORE,
    OP_TXN_BEGIN,
    OP_TXN_END,
)
from tests.sim.engine_oracle import OracleMulticore

#: L1 one set of 2 ways, L2 two sets of 2, a shared L3 of four sets of 4.
TINY = SimConfig(
    l1=CacheConfig(size=2 * 64, assoc=2, latency_cycles=2),
    l2=CacheConfig(size=4 * 64, assoc=2, latency_cycles=16),
    l3=CacheConfig(size=16 * 64, assoc=4, latency_cycles=30),
)
SHARED_LINES = range(1 << 12, (1 << 12) + 6)
CORE_COUNTS = (1, 2, 3, 4, 8)
#: Every code a private-walk recording can hold for a load, store or clwb.
PRIVATE_WALK_CODES = frozenset(
    (
        PK_L1_HIT,
        PK_L2_HIT,
        PK_L3_LOOKUP,
        PK_CLWB_DIRTY,
        PK_CLWB,
        PK_L2_HIT_PUSH,
        PK_L3_LOOKUP_PUSH,
    )
)


def synthetic_traces(seed, n_cores, functional):
    """Per-core transactions of loads, stores, clwbs, fences and compute
    over ten private lines plus six lines every core touches."""
    rng = random.Random(seed)
    traces = []
    for core in range(n_cores):
        private = range(core * 64, core * 64 + 10)
        ops = []
        for txn in range(rng.randint(3, 8)):
            ops.append((OP_TXN_BEGIN, txn))
            for _ in range(rng.randint(2, 12)):
                line = rng.choice(SHARED_LINES if rng.random() < 0.3 else private)
                draw = rng.random()
                if draw < 0.35:
                    ops.append((OP_STORE, line))
                elif draw < 0.6:
                    ops.append((OP_LOAD, line))
                elif draw < 0.85:
                    payload = rng.randbytes(64) if functional else None
                    ops.append((OP_CLWB, line, payload))
                elif draw < 0.92:
                    ops.append((OP_FENCE,))
                else:
                    ops.append((OP_COMPUTE, rng.choice((0.5, 3.0, 20.0))))
            ops.append((OP_TXN_END, txn))
        traces.append(ops)
    return traces


def _cases():
    for n_cores in CORE_COUNTS:
        for index, scheme in enumerate(EVALUATED_SCHEMES):
            for fidelity in ("timing", "full"):
                for traced in (False, True):
                    full = fidelity == "full"
                    seed = 1000 * n_cores + 10 * index + 2 * full + traced
                    mode = "traced" if traced else "untraced"
                    yield pytest.param(
                        n_cores,
                        scheme,
                        fidelity,
                        traced,
                        seed,
                        id=f"{n_cores}-{scheme.value}-{fidelity}-{mode}",
                    )


CASES = list(_cases())


def _config(scheme, fidelity):
    return dataclasses.replace(scheme_config(scheme, TINY), fidelity=fidelity)


def _observed(result, tracer):
    return (
        result.total_time_ns,
        tuple(result.txn_latencies),
        tuple(sorted(result.stats.snapshot().items())),
        None if tracer is None else tracer.events,
    )


@pytest.mark.parametrize("n_cores,scheme,fidelity,traced,seed", CASES)
def test_replay_matches_per_op_oracle(n_cores, scheme, fidelity, traced, seed):
    config = _config(scheme, fidelity)
    traces = synthetic_traces(seed, n_cores, config.functional)

    def tracer():
        return Tracer() if traced else None

    oracle_tracer = tracer()
    expected = _observed(
        OracleMulticore(config, n_cores, tracer=oracle_tracer).run(traces),
        oracle_tracer,
    )
    replay_tracer = tracer()
    recording = MulticoreSimulator(config, n_cores, tracer=replay_tracer)
    assert _observed(recording.run(traces), replay_tracer) == expected
    # A second run reuses those recorded walks instead of walking again.
    reuse_tracer = tracer()
    reusing = MulticoreSimulator(config, n_cores, tracer=reuse_tracer)
    result = reusing.run(traces, walks=recording.recorded_walks)
    assert reusing.recorded_walks == [None] * n_cores
    assert _observed(result, reuse_tracer) == expected


def test_cases_reach_every_live_l3_path():
    """L3 hits, L2 dirty evictions, memory write-backs and clwbs whose only
    dirty copy is in the L3 all occur across the cases, and the recorded
    private walks hold every ``PK_*`` code, so each replay branch runs."""
    totals = dict(
        l3_hits=0, l2_dirty_evictions=0, memory_writebacks=0, l3_only_clwbs=0
    )
    codes = set()
    for param in CASES:
        n_cores, scheme, fidelity, _, seed = param.values
        config = _config(scheme, fidelity)
        traces = synthetic_traces(seed, n_cores, config.functional)
        for ops in traces:
            codes.update(record_private_walk(config, build_arrays(ops)).main.kinds)
        oracle = OracleMulticore(config, n_cores)
        stats = oracle.run(traces).stats
        totals["l3_hits"] += stats.get("l3", "hits")
        totals["l2_dirty_evictions"] += sum(
            stats.get(f"core{core}.l2", "dirty_evictions") for core in range(n_cores)
        )
        totals["memory_writebacks"] += stats.get("hierarchy", "memory_writebacks")
        totals["l3_only_clwbs"] += sum(c.l3_only_dirty_clwbs for c in oracle.cores)
    assert all(totals.values()), totals
    assert PRIVATE_WALK_CODES <= codes, sorted(PRIVATE_WALK_CODES - codes)
