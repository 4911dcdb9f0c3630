"""Tests for per-process trace memoization."""

import dataclasses

import pytest

from repro.core.schemes import Scheme, scheme_config
from repro.sim import trace_cache
from repro.sim.simulator import Simulator, simulate_workload
from repro.sim.trace_cache import cached_generate_trace
from repro.workloads.generator import generate_trace


@pytest.fixture(autouse=True)
def fresh_cache():
    trace_cache.clear()
    yield
    trace_cache.clear()


def test_same_key_returns_same_object():
    first = cached_generate_trace("array", n_ops=10, seed=3)
    second = cached_generate_trace("array", n_ops=10, seed=3)
    assert first is second
    assert trace_cache.cache_stats() == (1, 1)


def test_different_keys_miss():
    cached_generate_trace("array", n_ops=10, seed=3)
    cached_generate_trace("array", n_ops=10, seed=4)
    cached_generate_trace("array", n_ops=11, seed=3)
    cached_generate_trace("queue", n_ops=10, seed=3)
    assert trace_cache.cache_stats() == (0, 4)


def test_cached_trace_matches_uncached():
    cached = cached_generate_trace("btree", n_ops=20, request_size=256, seed=7)
    fresh = generate_trace("btree", n_ops=20, request_size=256, seed=7)
    assert cached.ops == fresh.ops
    assert cached.warmup_ops == fresh.warmup_ops


def test_lru_bound_evicts_oldest():
    for seed in range(trace_cache.MAX_ENTRIES + 5):
        cached_generate_trace("array", n_ops=5, seed=seed)
    # Oldest seeds were evicted: re-requesting seed 0 is a miss again.
    _, misses_before = trace_cache.cache_stats()
    cached_generate_trace("array", n_ops=5, seed=0)
    _, misses_after = trace_cache.cache_stats()
    assert misses_after == misses_before + 1


def test_clear_detaches_derived_data_from_live_references():
    # A caller still holding the trace must not resurrect invalidated
    # arrays/recordings through it after clear().
    trace = cached_generate_trace("array", n_ops=10, seed=3)
    trace_cache.trace_arrays(trace)
    trace_cache.store_trace_outcomes(trace, ("sig",), object())
    assert trace.replay_arrays is not None
    assert trace.replay_outcomes is not None
    trace_cache.clear()
    assert trace.replay_arrays is None
    assert trace.warmup_replay_arrays is None
    assert trace.replay_outcomes is None


def test_simulation_results_identical_with_and_without_cache():
    """The acceptance guarantee: memoization never changes a result.

    The cached path (shared trace, attached arrays, the second scheme
    replaying the first one's recorded walk) must equal a plain
    :class:`Simulator` run over a freshly generated trace.
    """
    fresh = generate_trace("array", n_ops=15, request_size=256, seed=2)
    for scheme in (Scheme.WT_BASE, Scheme.SUPERMEM):
        cfg = dataclasses.replace(scheme_config(scheme), fidelity="timing")
        cold = Simulator(cfg).run(fresh.ops)
        warm = simulate_workload("array", scheme, n_ops=15, request_size=256, seed=2)
        assert cold.total_time_ns == warm.total_time_ns
        assert cold.txn_latencies == warm.txn_latencies
        assert cold.stats.snapshot() == warm.stats.snapshot()
    assert trace_cache.cache_stats() == (1, 1)  # the second scheme hit
    assert trace_cache.outcome_stats() == (1, 1)  # ...and replayed the walk
