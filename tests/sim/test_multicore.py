"""Tests for the multi-programmed simulator."""

import dataclasses

import pytest

from repro.common.config import MemoryConfig, SimConfig
from repro.common.errors import ConfigError
from repro.core.schemes import EVALUATED_SCHEMES, Scheme, scheme_config
from repro.experiments.common import experiment_base_config, get_scale
from repro.obs.tracer import Tracer
from repro.sim.engine import _read_observed
from repro.sim.multicore import MulticoreSimulator, simulate_multiprogrammed
from repro.txn.persist import OP_COMPUTE, OP_TXN_BEGIN, OP_TXN_END


def make_cfg():
    return dataclasses.replace(
        scheme_config(Scheme.UNSEC, SimConfig(memory=MemoryConfig(capacity=8 << 20))),
        functional=False,
    )


def test_interleaves_by_local_time():
    sim = MulticoreSimulator(make_cfg(), n_cores=2)
    # Core 0: one long compute; core 1: several short ones.
    traces = [
        [(OP_COMPUTE, 1000.0)],
        [(OP_COMPUTE, 10.0)] * 5,
    ]
    result = sim.run(traces)
    assert sim.engines[0].clock == 1000.0
    assert sim.engines[1].clock == 50.0
    assert result.total_time_ns >= 1000.0

    # Equal clocks: the lowest core index steps first.
    sim = MulticoreSimulator(make_cfg(), n_cores=3)
    order = []
    for engine in sim.engines:
        engine.step = (
            lambda op, step=engine.step, core=engine.core_id: (
                order.append(core),
                step(op),
            )
        )
    sim.run([[(OP_COMPUTE, 10.0)] * 2] * 2 + [[(OP_COMPUTE, 5.0)] * 2])
    assert order == [0, 1, 2, 2, 0, 1]


@pytest.mark.parametrize("n_programs", [1, 4, 8])
@pytest.mark.parametrize("scheme", EVALUATED_SCHEMES, ids=lambda s: s.value)
def test_fast_chain_matches_observed_chain(scheme, n_programs):
    """The gated fast chain is bit-identical to the traced, observed one."""
    kwargs = dict(
        n_programs=n_programs,
        n_ops=6,
        request_size=1024,
        seed=1,
        base_config=experiment_base_config(get_scale("smoke")),
    )
    fast = simulate_multiprogrammed("hashtable", scheme, **kwargs)
    observed = simulate_multiprogrammed(
        "hashtable", scheme, tracer=Tracer(), **kwargs
    )
    assert fast.total_time_ns == observed.total_time_ns
    assert fast.txn_latencies == observed.txn_latencies
    assert fast.stats.snapshot() == observed.stats.snapshot()


def test_fast_chain_bound_only_when_unobserved():
    trace = [(OP_TXN_BEGIN, 1), (OP_COMPUTE, 1.0), (OP_TXN_END, 1)]
    quiet = MulticoreSimulator(make_cfg(), n_cores=1)
    quiet.run([list(trace)])
    assert quiet.engines[0]._read_mem == quiet.system.read_line_fast
    traced = MulticoreSimulator(make_cfg(), n_cores=1, tracer=Tracer())
    traced.run([list(trace)])
    assert traced.engines[0]._read_mem.func is _read_observed


def test_txn_latencies_merged_across_cores():
    sim = MulticoreSimulator(make_cfg(), n_cores=2)
    trace = [(OP_TXN_BEGIN, 1), (OP_COMPUTE, 100.0), (OP_TXN_END, 1)]
    result = sim.run([list(trace), list(trace)])
    assert result.n_txns == 2


def test_trace_count_must_match_cores():
    sim = MulticoreSimulator(make_cfg(), n_cores=2)
    with pytest.raises(ConfigError):
        sim.run([[]])


def test_zero_cores_rejected():
    with pytest.raises(ConfigError):
        MulticoreSimulator(make_cfg(), n_cores=0)


def test_more_programs_increase_pressure():
    """Shared banks: 4 programs see higher per-txn latency than 1."""
    one = simulate_multiprogrammed(
        "queue", Scheme.SUPERMEM, n_programs=1, n_ops=40, request_size=1024, seed=1
    )
    four = simulate_multiprogrammed(
        "queue", Scheme.SUPERMEM, n_programs=4, n_ops=40, request_size=1024, seed=1
    )
    assert four.avg_txn_latency_ns > one.avg_txn_latency_ns


def test_heterogeneous_mix():
    """A list of workload names runs one program per core."""
    result = simulate_multiprogrammed(
        ["queue", "array", "hashtable"],
        Scheme.SUPERMEM,
        n_ops=10,
        request_size=256,
        seed=1,
    )
    assert result.n_txns == 30


def test_heterogeneous_mix_count_mismatch_rejected():
    with pytest.raises(ConfigError):
        simulate_multiprogrammed(
            ["queue", "array"], Scheme.SUPERMEM, n_programs=3, n_ops=5
        )


def test_single_name_requires_count():
    with pytest.raises(ConfigError):
        simulate_multiprogrammed("queue", Scheme.SUPERMEM, n_ops=5)


def test_programs_live_in_disjoint_regions():
    """Each program's heap must sit in its own slice of physical space."""
    from repro.workloads.generator import generate_trace
    from repro.txn.persist import OP_CLWB

    region = (64 << 20) // 4
    line_sets = []
    for program in range(2):
        trace = generate_trace(
            "queue",
            n_ops=5,
            request_size=256,
            footprint=64 << 10,
            heap_base=program * region,
            heap_capacity=region,
            seed=1,
        )
        line_sets.append({op[1] for op in trace.ops if op[0] == OP_CLWB})
    assert not (line_sets[0] & line_sets[1])
