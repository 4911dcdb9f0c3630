"""Per-process memoization of generated workload traces.

Every experiment sweep replays the *same* seeded trace under several
schemes — fig13 alone generates each (workload, size) trace seven times, once
per scheme, even though trace generation is completely independent of the
scheme being simulated. This module caches :func:`~repro.workloads
.generator.generate_trace` results keyed on every input that determines
the trace: ``(workload, n_ops, request_size, footprint, heap_base,
heap_capacity, seed, warmup_ops, track_payloads)``.

Safety: traces are lists of plain tuples and the simulator only *reads*
them (the timing state lives in :class:`~repro.memory.write_queue.WQEntry`
objects built per run), so sharing one :class:`GeneratedTrace` across runs
is sound. The cache is always on: a cached run is bit-identical to
``Simulator(cfg).run()`` over a freshly generated trace's ops — asserted
by ``tests/sim/test_trace_cache.py``.

The cache is per-process: each worker of the parallel experiment runner
(:mod:`repro.experiments.runner`) builds its own, so a trace is generated
at most once per worker regardless of how many schemes that worker
simulates. A small LRU bound keeps long design-space explorations from
accumulating traces without limit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.sim.batch import TraceArrays, build_arrays
from repro.workloads.generator import GeneratedTrace, generate_trace

#: Maximum distinct traces retained per process (LRU eviction). A full
#: figure sweep needs ~15 (5 workloads x 3 sizes); 64 leaves generous
#: headroom for ablation grids without unbounded growth.
MAX_ENTRIES = 64

_cache: "OrderedDict[Tuple, GeneratedTrace]" = OrderedDict()


def clear() -> None:
    """Drop all cached traces.

    Derived data attached to the cached traces (replay arrays, recorded
    outcome streams) is detached too, so callers still holding a
    :class:`GeneratedTrace` reference cannot resurrect invalidated state
    through it — after ``clear()`` every replay pays its own decode and
    recording again.
    """
    for trace in _cache.values():
        trace.replay_arrays = None
        trace.warmup_replay_arrays = None
        trace.replay_outcomes = None
    _cache.clear()


def trace_arrays(trace: GeneratedTrace) -> TraceArrays:
    """The flat replay arrays for ``trace.ops``, decoded at most once.

    The arrays live on the trace object itself (``replay_arrays``), so a
    trace memoized by this cache is decoded once per process no matter
    how many schemes replay it. Arrays are pure derived data — sharing
    them is as sound as sharing the trace tuples.
    """
    arrays = trace.replay_arrays
    if arrays is None:
        arrays = build_arrays(trace.ops)
        trace.replay_arrays = arrays
    return arrays


#: First element of a private-walk key; single-core keys are config tuples.
PRIVATE_WALK = "private-walk"


def private_walk_key(config) -> Tuple:
    """The key a multicore core's private L1/L2 walk is kept under.

    The walk depends only on the L1/L2 geometry. The leading tag keeps it
    apart from single-core ``(l1, l2, l3, timing)`` recordings.
    """
    return (PRIVATE_WALK, config.l1, config.l2)


def trace_outcomes(trace: GeneratedTrace, cache_sig: Tuple):
    """The recorded hierarchy outcomes of ``trace`` under ``cache_sig``.

    ``cache_sig`` is the cache-geometry key ``(l1, l2, l3, timing)``
    (frozen config dataclasses — hashable), or a
    :func:`private_walk_key`. Returns ``None`` when no recording is
    attached to the trace yet; the caller then records one and attaches
    it via :func:`store_trace_outcomes`. A seven-scheme sweep over one
    trace records once and replays six times.
    """
    attached = trace.replay_outcomes
    return None if attached is None else attached.get(cache_sig)


def store_trace_outcomes(trace: GeneratedTrace, cache_sig: Tuple, outcomes) -> None:
    """Attach a freshly-recorded outcome stream to the cached trace."""
    store = trace.replay_outcomes
    if store is None:
        store = {}
        trace.replay_outcomes = store
    store[cache_sig] = outcomes


def warmup_trace_arrays(trace: GeneratedTrace) -> TraceArrays:
    """Like :func:`trace_arrays`, for ``trace.warmup_ops``."""
    arrays = trace.warmup_replay_arrays
    if arrays is None:
        arrays = build_arrays(trace.warmup_ops)
        trace.warmup_replay_arrays = arrays
    return arrays


def cached_generate_trace(
    name: str,
    n_ops: int,
    request_size: int = 1024,
    footprint: int = 1 << 20,
    heap_base: int = 0,
    heap_capacity: Optional[int] = None,
    seed: int = 1,
    warmup_ops: int = 0,
    track_payloads: bool = False,
) -> GeneratedTrace:
    """Memoized :func:`~repro.workloads.generator.generate_trace`.

    The returned trace is shared between callers and must be treated as
    immutable (it is: ops are tuples).
    """
    key = (
        name,
        n_ops,
        request_size,
        footprint,
        heap_base,
        heap_capacity,
        seed,
        warmup_ops,
        track_payloads,
    )
    trace = _cache.get(key)
    if trace is not None:
        _cache.move_to_end(key)
        return trace
    trace = generate_trace(
        name,
        n_ops=n_ops,
        request_size=request_size,
        footprint=footprint,
        heap_base=heap_base,
        heap_capacity=heap_capacity,
        seed=seed,
        warmup_ops=warmup_ops,
        track_payloads=track_payloads,
    )
    _cache[key] = trace
    while len(_cache) > MAX_ENTRIES:
        _cache.popitem(last=False)
    return trace
