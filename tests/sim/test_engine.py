"""Tests for the per-core replay engine.

Each helper call runs its ops the way a single-core point does: the
engine records the cache walk over them, then replays the recording.
The hierarchy and the clock carry over between calls.
"""

import dataclasses

import pytest

from repro.common.config import MemoryConfig, SimConfig
from repro.common.errors import SimulationError
from repro.core.schemes import Scheme, scheme_config
from repro.sim.batch import build_arrays
from repro.sim.simulator import Simulator
from repro.txn.persist import (
    OP_CLWB,
    OP_COMPUTE,
    OP_FENCE,
    OP_LOAD,
    OP_STORE,
    OP_TXN_BEGIN,
    OP_TXN_END,
)


def make_engine(scheme=Scheme.UNSEC):
    cfg = dataclasses.replace(
        scheme_config(scheme, SimConfig(memory=MemoryConfig(capacity=8 << 20))),
        fidelity="timing",
    )
    sim = Simulator(cfg)
    return sim.engine, sim.stats


def step(engine, op):
    """Record and replay one op on ``engine``."""
    arrays = build_arrays([op])
    engine.run_batched_replay(arrays, engine.run_batched_record(arrays))


def test_compute_advances_clock():
    engine, _ = make_engine()
    step(engine, (OP_COMPUTE, 100.0))
    assert engine.clock == 100.0


def test_load_miss_costs_memory_latency():
    engine, _ = make_engine()
    step(engine, (OP_LOAD, 0))
    miss_clock = engine.clock
    assert miss_clock > 60  # at least one PCM read (63 ns)
    step(engine, (OP_LOAD, 0))
    assert engine.clock - miss_clock < 5  # L1 hit


def test_store_then_clwb_persists():
    engine, stats = make_engine()
    step(engine, (OP_STORE, 0))
    step(engine, (OP_CLWB, 0, None))
    assert stats.get("wq", "appends") == 1


def test_clwb_of_clean_line_is_free_at_memory():
    engine, stats = make_engine()
    step(engine, (OP_LOAD, 0))
    step(engine, (OP_CLWB, 0, None))
    assert stats.get("wq", "appends") == 0


def test_fence_advances_clock():
    engine, _ = make_engine()
    before = engine.clock
    step(engine, (OP_FENCE,))
    assert engine.clock > before


def test_txn_latency_measured():
    engine, _ = make_engine()
    step(engine, (OP_TXN_BEGIN, 1))
    step(engine, (OP_COMPUTE, 500.0))
    step(engine, (OP_TXN_END, 1))
    assert engine.txn_latencies == [500.0]


def test_warmup_not_measured():
    engine, _ = make_engine()
    engine.set_measuring(False)
    step(engine, (OP_TXN_BEGIN, 1))
    step(engine, (OP_TXN_END, 1))
    engine.set_measuring(True)
    step(engine, (OP_TXN_BEGIN, 2))
    step(engine, (OP_TXN_END, 2))
    assert len(engine.txn_latencies) == 1


def test_unknown_op_rejected():
    engine, _ = make_engine()
    with pytest.raises(SimulationError):
        step(engine, (99, 0))


def test_encrypted_store_produces_counter_write():
    engine, stats = make_engine(Scheme.WT_BASE)
    step(engine, (OP_STORE, 0))
    step(engine, (OP_CLWB, 0, None))
    assert stats.get("wq", "data_appends") == 1
    assert stats.get("wq", "counter_appends") == 1
