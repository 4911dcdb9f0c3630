"""Tests for the multi-programmed simulator."""

import dataclasses

import pytest

from repro.common.config import MemoryConfig, SimConfig
from repro.common.errors import ConfigError
from repro.core.schemes import EVALUATED_SCHEMES, Scheme, scheme_config
from repro.experiments.common import experiment_base_config, get_scale
from repro.obs.tracer import Tracer
from repro.sim.engine import CoreEngine
from repro.sim.multicore import MulticoreSimulator, simulate_multiprogrammed
from repro.txn.persist import OP_COMPUTE, OP_TXN_BEGIN, OP_TXN_END


def make_cfg():
    return dataclasses.replace(
        scheme_config(Scheme.UNSEC, SimConfig(memory=MemoryConfig(capacity=8 << 20))),
        fidelity="timing",
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

    # Shared ops run in (clock, core) order, so equal clocks go to the
    # lowest core index. A traced txn end is shared (its event lands in
    # the one stream), so the stream shows the order: ends at 10/20 ns on
    # cores 0 and 1, at 5/10 ns on core 2.
    tracer = Tracer()
    sim = MulticoreSimulator(make_cfg(), n_cores=3, tracer=tracer)

    def txns(ns):
        return [(OP_TXN_BEGIN, 1), (OP_COMPUTE, ns), (OP_TXN_END, 1)] * 2

    sim.run([txns(10.0), txns(10.0), txns(5.0)])
    ends = [(event.ts + event.dur, event.args["core"]) for event in tracer.events]
    assert ends == [(5.0, 2), (10.0, 0), (10.0, 1), (10.0, 2), (20.0, 0), (20.0, 1)]


@pytest.mark.parametrize("n_programs", [1, 4, 8])
@pytest.mark.parametrize("scheme", EVALUATED_SCHEMES, ids=lambda s: s.value)
def test_fast_chain_matches_observed_chain(scheme, n_programs):
    """An untraced run is bit-identical to a traced one."""
    kwargs = dict(
        n_programs=n_programs,
        n_ops=6,
        request_size=1024,
        seed=1,
        base_config=experiment_base_config(get_scale("smoke")),
    )
    untraced = simulate_multiprogrammed("hashtable", scheme, **kwargs)
    tracer = Tracer()
    traced = simulate_multiprogrammed("hashtable", scheme, tracer=tracer, **kwargs)
    assert untraced.total_time_ns == traced.total_time_ns
    assert untraced.txn_latencies == traced.txn_latencies
    assert untraced.stats.snapshot() == traced.stats.snapshot()
    assert tracer.events


@pytest.mark.parametrize("scheme", EVALUATED_SCHEMES, ids=lambda s: s.value)
def test_full_stalls_charged_to_the_stepping_core(scheme, monkeypatch):
    """Every write-queue-full stall names the core whose op stalled.

    Each resumption of a core's replay runs only that core's ops, so the
    stalls it emits must all name that core.
    """
    tracer = Tracer()
    stalls = []
    replay = CoreEngine.replay

    def observed_replay(engine, *args, **kwargs):
        inner = replay(engine, *args, **kwargs)
        bound = None
        while True:
            seen = len(tracer.events)
            try:
                clock = inner.send(bound)
            except StopIteration:
                return
            finally:
                stalls.extend(
                    (engine.core_id, event.args["core"])
                    for event in tracer.events[seen:]
                    if event.name == "full_stall"
                )
            bound = yield clock

    monkeypatch.setattr(CoreEngine, "replay", observed_replay)
    result = simulate_multiprogrammed(
        "array",
        scheme,
        n_programs=4,
        n_ops=8,
        request_size=4096,
        seed=1,
        base_config=experiment_base_config(get_scale("smoke")),
        tracer=tracer,
    )
    assert len(stalls) == result.stats.get("wq", "full_stalls") > 0
    assert {core for core, _ in stalls} == {0, 1, 2, 3}
    assert all(stepping == charged for stepping, charged in stalls)


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


def test_program_count_below_one_rejected():
    with pytest.raises(ConfigError, match="at least one program"):
        simulate_multiprogrammed("queue", Scheme.SUPERMEM, n_programs=0, n_ops=5)


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
