"""Tests for binary trace save/load."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SimulationError
from repro.sim.tracefile import load_trace, save_trace, trace_summary
from repro.txn.persist import (
    OP_CLWB,
    OP_COMPUTE,
    OP_FENCE,
    OP_LOAD,
    OP_STORE,
    OP_TXN_BEGIN,
    OP_TXN_END,
)

SAMPLE = [
    (OP_TXN_BEGIN, 1),
    (OP_LOAD, 100),
    (OP_STORE, 100),
    (OP_CLWB, 100, None),
    (OP_FENCE,),
    (OP_COMPUTE, 12.5),
    (OP_TXN_END, 1),
]


def test_roundtrip_without_payloads(tmp_path):
    path = tmp_path / "t.smtr"
    size = save_trace(path, SAMPLE)
    assert size > 16
    assert load_trace(path) == SAMPLE


def test_roundtrip_with_payloads(tmp_path):
    path = tmp_path / "t.smtr"
    ops = [(OP_CLWB, 5, bytes(range(64))), (OP_CLWB, 6, None)]
    save_trace(path, ops, payloads=True)
    loaded = load_trace(path)
    assert loaded[0] == (OP_CLWB, 5, bytes(range(64)))
    assert loaded[1] == (OP_CLWB, 6, None)


def test_payloads_dropped_when_disabled(tmp_path):
    path = tmp_path / "t.smtr"
    save_trace(path, [(OP_CLWB, 5, bytes(64))], payloads=False)
    assert load_trace(path) == [(OP_CLWB, 5, None)]


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(SimulationError):
        load_trace(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "t.smtr"
    save_trace(path, SAMPLE)
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(SimulationError):
        load_trace(path)


def test_generated_trace_roundtrips(tmp_path):
    from repro.workloads.generator import generate_trace

    trace = generate_trace("queue", n_ops=10, request_size=256, footprint=64 << 10)
    path = tmp_path / "queue.smtr"
    save_trace(path, trace.ops)
    assert load_trace(path) == [
        op if op[0] != OP_CLWB else (op[0], op[1], None) for op in trace.ops
    ]


def test_saved_trace_replays_identically(tmp_path):
    """A reloaded trace must produce the exact same simulation result."""
    import dataclasses

    from repro.common.config import MemoryConfig, SimConfig
    from repro.core.schemes import Scheme, scheme_config
    from repro.sim.simulator import Simulator
    from repro.workloads.generator import generate_trace

    trace = generate_trace("array", n_ops=20, request_size=256, footprint=256 << 10)
    path = tmp_path / "array.smtr"
    save_trace(path, trace.ops)
    reloaded = load_trace(path)

    cfg = dataclasses.replace(
        scheme_config(Scheme.SUPERMEM, SimConfig(memory=MemoryConfig(capacity=8 << 20))),
        fidelity="timing",
    )
    a = Simulator(cfg).run(trace.ops)
    b = Simulator(cfg).run(reloaded)
    assert a.total_time_ns == b.total_time_ns
    assert a.txn_latencies == b.txn_latencies


def test_trace_summary():
    summary = trace_summary(SAMPLE)
    assert summary["ops"] == len(SAMPLE)
    assert summary["transactions"] == 1
    assert summary["distinct_lines"] == 1
    assert summary["footprint_bytes"] == 64
    assert summary["mix"]["load"] == 1


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.sampled_from([OP_LOAD, OP_STORE]), st.integers(0, 1 << 40)),
            st.tuples(st.just(OP_FENCE)),
            st.tuples(st.sampled_from([OP_TXN_BEGIN, OP_TXN_END]), st.integers(0, 1 << 40)),
            st.tuples(st.just(OP_COMPUTE), st.floats(0, 1e9, allow_nan=False)),
        ),
        max_size=100,
    )
)
def test_property_roundtrip(ops):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.smtr"
        save_trace(path, ops)
        assert load_trace(path) == ops
