"""Tests for per-process trace memoization."""

import dataclasses

import pytest

from repro.core.schemes import Scheme, scheme_config
from repro.sim import trace_cache
from repro.sim.simulator import Simulator, simulate_workload
from repro.sim.trace_cache import cached_generate_trace
from repro.workloads.generator import generate_trace
from tests.sim.trace_work import count_trace_work


@pytest.fixture(autouse=True)
def fresh_cache():
    trace_cache.clear()
    yield
    trace_cache.clear()


@pytest.fixture
def work(monkeypatch):
    return count_trace_work(monkeypatch)


def test_same_key_returns_same_object(work):
    first = cached_generate_trace("array", n_ops=10, seed=3)
    second = cached_generate_trace("array", n_ops=10, seed=3)
    assert first is second
    assert work["generated"] == 1


def test_different_keys_miss(work):
    cached_generate_trace("array", n_ops=10, seed=3)
    cached_generate_trace("array", n_ops=10, seed=4)
    cached_generate_trace("array", n_ops=11, seed=3)
    cached_generate_trace("queue", n_ops=10, seed=3)
    assert work["generated"] == 4


def test_cached_trace_matches_uncached():
    cached = cached_generate_trace("btree", n_ops=20, request_size=256, seed=7)
    fresh = generate_trace("btree", n_ops=20, request_size=256, seed=7)
    assert cached.ops == fresh.ops
    assert cached.warmup_ops == fresh.warmup_ops


def test_lru_bound_evicts_oldest(work):
    last = trace_cache.MAX_ENTRIES + 4
    for seed in range(last + 1):
        cached_generate_trace("array", n_ops=5, seed=seed)
    assert work["generated"] == last + 1
    # The newest seed is still cached; the oldest was evicted, so
    # re-requesting seed 0 generates it again.
    cached_generate_trace("array", n_ops=5, seed=last)
    assert work["generated"] == last + 1
    cached_generate_trace("array", n_ops=5, seed=0)
    assert work["generated"] == last + 2


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


def test_simulation_results_identical_with_and_without_cache(work):
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
    assert work["generated"] == 1  # the second scheme reused the trace
    assert work["recorded"] == 1  # ...and replayed the first one's walk
