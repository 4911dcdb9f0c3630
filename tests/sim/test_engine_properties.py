"""Property-based invariants of the replay engine and memory system."""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.common.config import MemoryConfig, SimConfig
from repro.core.schemes import Scheme, scheme_config
from repro.sim.batch import build_arrays
from repro.sim.simulator import Simulator
from repro.txn.persist import (
    OP_CLWB,
    OP_COMPUTE,
    OP_FENCE,
    OP_LOAD,
    OP_STORE,
)

N_LINES = 512  # confine accesses to a few pages


def op_strategy():
    line = st.integers(min_value=0, max_value=N_LINES - 1)
    return st.one_of(
        st.tuples(st.just(OP_LOAD), line),
        st.tuples(st.just(OP_STORE), line),
        st.tuples(st.just(OP_CLWB), line, st.none()),
        st.tuples(st.just(OP_FENCE)),
        st.tuples(st.just(OP_COMPUTE), st.floats(min_value=0.1, max_value=50.0)),
    )


def make_engine(scheme):
    cfg = dataclasses.replace(
        scheme_config(scheme, SimConfig(memory=MemoryConfig(capacity=8 << 20))),
        fidelity="timing",
    )
    sim = Simulator(cfg)
    return sim.engine, sim.system, sim.stats


def step(engine, op):
    """Record and replay one op on ``engine`` (the walk carries over)."""
    arrays = build_arrays([op])
    engine.run_batched_replay(arrays, engine.run_batched_record(arrays))


@settings(max_examples=25, deadline=None)
@given(st.lists(op_strategy(), max_size=80))
def test_clock_is_monotonic(ops):
    engine, system, _ = make_engine(Scheme.SUPERMEM)
    last = 0.0
    for op in ops:
        step(engine, op)
        assert engine.clock >= last
        last = engine.clock


@settings(max_examples=25, deadline=None)
@given(st.lists(op_strategy(), max_size=80))
def test_all_appends_eventually_issue(ops):
    """After drain_all, every appended write must have been issued."""
    engine, system, stats = make_engine(Scheme.SUPERMEM)
    for op in ops:
        step(engine, op)
    system.drain()
    assert stats.get("wq", "appends") - stats.get("wq", "cwc_coalesced") == stats.get(
        "wq", "issued"
    )
    assert len(system.controller.wq) == 0


@settings(max_examples=20, deadline=None)
@given(st.lists(op_strategy(), max_size=60))
def test_encrypted_write_traffic_is_exactly_doubled_pre_coalescing(ops):
    """Under WT, counter appends must equal data appends (one pair each)."""
    engine, system, stats = make_engine(Scheme.WT_BASE)
    for op in ops:
        step(engine, op)
    assert stats.get("wq", "counter_appends") == stats.get("wq", "data_appends")


@settings(max_examples=20, deadline=None)
@given(st.lists(op_strategy(), max_size=60), st.integers(0, 3))
def test_same_trace_same_result(ops, _salt):
    """Replaying an identical trace must give identical timing."""
    clocks = []
    for _ in range(2):
        engine, system, _ = make_engine(Scheme.SUPERMEM)
        for op in ops:
            step(engine, op)
        finish = system.drain()
        clocks.append((engine.clock, finish))
    assert clocks[0] == clocks[1]


@settings(max_examples=15, deadline=None)
@given(st.lists(op_strategy(), min_size=1, max_size=60))
def test_unsec_is_never_slower_than_wt(ops):
    """The WT scheme can never beat the unencrypted baseline."""
    finishes = {}
    for scheme in (Scheme.UNSEC, Scheme.WT_BASE):
        engine, system, _ = make_engine(scheme)
        for op in ops:
            step(engine, op)
        finishes[scheme] = max(engine.clock, system.drain())
    assert finishes[Scheme.UNSEC] <= finishes[Scheme.WT_BASE] + 1e-6
