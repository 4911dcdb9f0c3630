"""Behavioural tests of the Simulator wrapper (warmup, determinism)."""

import dataclasses

import pytest

from repro.common.config import MemoryConfig, SimConfig
from repro.core.schemes import Scheme, scheme_config
from repro.sim.simulator import Simulator, simulate_workload
from repro.workloads.generator import generate_trace


def make_cfg():
    return dataclasses.replace(
        scheme_config(
            Scheme.SUPERMEM, SimConfig(memory=MemoryConfig(capacity=8 << 20))
        ),
        fidelity="timing",
    )


def test_warmup_resets_traffic_counters():
    trace = generate_trace(
        "queue", n_ops=10, warmup_ops=10, request_size=256, footprint=64 << 10
    )
    warmed = Simulator(make_cfg()).run(trace.ops, warmup_ops=trace.warmup_ops)
    cold = Simulator(make_cfg()).run(list(trace.ops))
    # Same measured window: traffic counters must match, not double.
    assert warmed.n_txns == cold.n_txns == 10
    assert abs(warmed.data_writes - cold.data_writes) <= 2


def test_warmup_latencies_not_recorded():
    trace = generate_trace(
        "array", n_ops=5, warmup_ops=7, request_size=256, footprint=64 << 10
    )
    result = Simulator(make_cfg()).run(trace.ops, warmup_ops=trace.warmup_ops)
    assert result.n_txns == 5


def test_warmup_keeps_caches_warm():
    """A warmed run's measured phase must hit the counter cache more than
    a cold run of the same ops (the cache contents survive the stats
    reset)."""
    warm = simulate_workload(
        "queue",
        Scheme.SUPERMEM,
        n_ops=20,
        warmup_ops=20,
        request_size=256,
        footprint=64 << 10,
    )
    cold = simulate_workload(
        "queue",
        Scheme.SUPERMEM,
        n_ops=20,
        warmup_ops=0,
        request_size=256,
        footprint=64 << 10,
    )
    assert warm.counter_cache_hit_rate >= cold.counter_cache_hit_rate


def test_simulate_workload_is_timing_only():
    result = simulate_workload(
        "queue", Scheme.SUPERMEM, n_ops=5, request_size=256, footprint=64 << 10
    )
    # Timing-only runs count NVM writes but store no payload bytes.
    assert result.stats.get("nvm", "writes") > 0


def test_total_time_includes_final_drain():
    trace = generate_trace("queue", n_ops=5, request_size=256, footprint=64 << 10)
    sim = Simulator(make_cfg())
    result = sim.run(list(trace.ops))
    assert result.total_time_ns >= sim.engine.clock
    assert len(sim.system.controller.wq) == 0
