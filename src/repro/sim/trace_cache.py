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

Below the process LRU sits an optional second tier, the on-disk
:class:`~repro.sim.outcome_store.OutcomeStore` (activated per run via
:func:`use_store`, normally from ``SimConfig.outcome_store``). Lookups
tier as **process LRU -> disk store -> generate/record**: a store hit
rebuilds the trace (arrays attached) or the recorded outcome stream from
its compact binary entry, and a miss falls through to the compute path
whose result is written back for the next process. A 4-job sweep against
one store therefore generates each trace and records each (trace,
geometry) walk exactly once fleet-wide. Multicore private-walk
recordings (:func:`private_walk_key`) stay in the process tier.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.sim import outcome_store as _outcome_store
from repro.sim.batch import TraceArrays, build_arrays
from repro.sim.outcome_store import OutcomeStore
from repro.workloads.generator import GeneratedTrace, generate_trace

#: Maximum distinct traces retained per process (LRU eviction). A full
#: figure sweep needs ~15 (5 workloads x 3 sizes); 64 leaves generous
#: headroom for ablation grids without unbounded growth.
MAX_ENTRIES = 64

_cache: "OrderedDict[Tuple, GeneratedTrace]" = OrderedDict()
_store: Optional[OutcomeStore] = None
_hits = 0
_misses = 0
_array_hits = 0
_array_misses = 0
_outcome_hits = 0
_outcome_misses = 0


def use_store(path: Optional[str]) -> Optional[OutcomeStore]:
    """Activate (or deactivate, with ``None``) the on-disk second tier.

    Called per simulation from ``SimConfig.outcome_store``, so the
    config is the single source of truth: runs without a configured
    store never touch the disk tier, even mid-process after a run that
    used one. Re-activating the same path reuses the handle.
    """
    global _store
    if not path:
        _store = None
        return None
    root = os.path.abspath(path)
    if _store is None or _store.root != root:
        _store = OutcomeStore(root)
    return _store


def active_store() -> Optional[OutcomeStore]:
    """The currently-activated :class:`OutcomeStore`, if any."""
    return _store


def clear() -> None:
    """Drop all cached traces and reset the hit/miss counters.

    Derived data attached to the cached traces (replay arrays, recorded
    outcome streams) is detached too, so callers still holding a
    :class:`GeneratedTrace` reference cannot resurrect invalidated state
    through it — after ``clear()`` every replay pays its own decode and
    recording again (the on-disk store, if active, is not touched).
    """
    global _hits, _misses, _array_hits, _array_misses
    global _outcome_hits, _outcome_misses
    for trace in _cache.values():
        trace.replay_arrays = None
        trace.warmup_replay_arrays = None
        trace.replay_outcomes = None
    _cache.clear()
    _hits = 0
    _misses = 0
    _array_hits = 0
    _array_misses = 0
    _outcome_hits = 0
    _outcome_misses = 0


def cache_stats() -> Tuple[int, int]:
    """``(hits, misses)`` since the last :func:`clear`."""
    return _hits, _misses


def array_stats() -> Tuple[int, int]:
    """Replay-array decode cache ``(hits, misses)`` since :func:`clear`.

    A *hit* means a replay reused arrays already decoded onto the trace
    (:func:`trace_arrays`/:func:`warmup_trace_arrays`); a *miss* paid one
    decode pass.
    """
    return _array_hits, _array_misses


def store_stats() -> Dict[str, int]:
    """Process-wide on-disk store counters (see
    :func:`repro.sim.outcome_store.store_stats`); zeros when no store
    has ever been activated."""
    return _outcome_store.store_stats()


def trace_arrays(trace: GeneratedTrace) -> TraceArrays:
    """The flat replay arrays for ``trace.ops``, decoded at most once.

    The arrays live on the trace object itself (``replay_arrays``), so a
    trace memoized by this cache is decoded once per process no matter
    how many schemes replay it. Arrays are pure derived data — sharing
    them is as sound as sharing the trace tuples.
    """
    global _array_hits, _array_misses
    arrays = trace.replay_arrays
    if arrays is not None:
        _array_hits += 1
        return arrays
    _array_misses += 1
    arrays = build_arrays(trace.ops)
    trace.replay_arrays = arrays
    return arrays


def outcome_stats() -> Tuple[int, int]:
    """Hierarchy outcome-stream cache ``(hits, misses)`` since :func:`clear`.

    A *hit* means a replay reused a recorded cache-walk outcome stream
    (:func:`trace_outcomes`) — whether from this process's attached
    recordings or loaded from the on-disk store; a *miss* means the run
    had to walk (and record) the hierarchy itself. A seven-scheme sweep
    over one trace records once and hits six times.
    """
    return _outcome_hits, _outcome_misses


#: First element of a private-walk key; single-core keys are config tuples.
PRIVATE_WALK = "private-walk"


def private_walk_key(config) -> Tuple:
    """The key a multicore core's private L1/L2 walk is kept under.

    The walk depends only on the L1/L2 geometry. The leading tag keeps it
    apart from single-core ``(l1, l2, l3, timing)`` recordings and out of
    the on-disk store, whose format holds single-core recordings only.
    """
    return (PRIVATE_WALK, config.l1, config.l2)


def _on_disk(trace: GeneratedTrace, cache_sig: Tuple) -> Optional[str]:
    """The store digest to use for this recording, or None to stay in
    process (no store, no trace digest, or a private walk)."""
    if _store is None or cache_sig[0] == PRIVATE_WALK:
        return None
    return getattr(trace, "store_digest", None)


def trace_outcomes(trace: GeneratedTrace, cache_sig: Tuple):
    """The recorded hierarchy outcomes of ``trace`` under ``cache_sig``.

    ``cache_sig`` is the cache-geometry key ``(l1, l2, l3, timing)``
    (frozen config dataclasses — hashable), or a
    :func:`private_walk_key`. Tiered lookup: recordings attached to the
    trace first, then the on-disk store (when active, the trace carries a
    store digest, and the key is not a private walk's). Returns ``None``
    (and counts a miss) when no recording exists yet; the caller then
    records one and stores it via :func:`store_trace_outcomes`.
    """
    global _outcome_hits, _outcome_misses
    attached = trace.replay_outcomes
    outcomes = None if attached is None else attached.get(cache_sig)
    if outcomes is not None:
        _outcome_hits += 1
        return outcomes
    digest = _on_disk(trace, cache_sig)
    if digest is not None:
        outcomes = _store.load_outcomes(
            digest,
            cache_sig,
            n_main=len(trace.ops),
            n_warm=len(trace.warmup_ops),
        )
        if outcomes is not None:
            _outcome_hits += 1
            if attached is None:
                attached = {}
                trace.replay_outcomes = attached
            attached[cache_sig] = outcomes
            return outcomes
    _outcome_misses += 1
    return None


def store_trace_outcomes(trace: GeneratedTrace, cache_sig: Tuple, outcomes) -> None:
    """Attach a freshly-recorded outcome stream to the cached trace
    (and persist it to the on-disk store when one is active)."""
    store = trace.replay_outcomes
    if store is None:
        store = {}
        trace.replay_outcomes = store
    store[cache_sig] = outcomes
    digest = _on_disk(trace, cache_sig)
    if digest is not None:
        _store.save_outcomes(digest, cache_sig, outcomes)


def warmup_trace_arrays(trace: GeneratedTrace) -> TraceArrays:
    """Like :func:`trace_arrays`, for ``trace.warmup_ops``."""
    global _array_hits, _array_misses
    arrays = trace.warmup_replay_arrays
    if arrays is not None:
        _array_hits += 1
        return arrays
    _array_misses += 1
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

    Lookup order: process LRU, then the on-disk store (when active —
    a hit decodes the stored op streams, arrays attached, without
    running the workload), then generation (written back to the store).
    The returned trace is shared between callers and must be treated as
    immutable (it is: ops are tuples).
    """
    global _hits, _misses
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
        _hits += 1
        _cache.move_to_end(key)
        return trace
    _misses += 1
    digest = None
    trace = None
    if _store is not None:
        digest = _outcome_store.trace_digest(
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
        trace = _store.load_trace(digest)
    if trace is None:
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
        if _store is not None:
            _store.save_trace(digest, trace)
    if digest is not None:
        # Key for the outcome tier; GeneratedTrace is a plain dataclass,
        # so derived attributes ride along like replay_arrays does.
        trace.store_digest = digest
    _cache[key] = trace
    while len(_cache) > MAX_ENTRIES:
        _cache.popitem(last=False)
    return trace
