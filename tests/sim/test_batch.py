"""Single-core replay: bit-identity with the per-op engine loop.

Single-core runs split each trace in two passes: a hierarchy-only pass
records the CPU cache walk's outcomes
(:meth:`~repro.sim.engine.CoreEngine.run_batched_record`), and the timing
replay (:meth:`~repro.sim.engine.CoreEngine.run_batched_replay`) drives
the memory system from that recording. Within a sweep the recording is
reused across schemes, so later schemes skip the walk entirely. None of
that may change a single simulated number: these tests compare
:meth:`~repro.sim.simulator.Simulator.run` against the per-op oracle
(:func:`tests.sim.engine_oracle.run_single`, which interleaves the walk
with the memory calls on a fresh simulator) on total time, every
transaction latency, and every stats counter, across schemes,
fidelities, warm-up, and record-vs-replay modes.
"""

import dataclasses

import pytest

from repro.common.config import SimConfig
from repro.common.errors import SimulationError
from repro.core.schemes import EVALUATED_SCHEMES, Scheme, scheme_config
from repro.sim import trace_cache
from repro.sim.batch import OutcomeSegment, ReplayOutcomes, build_arrays
from repro.sim.multicore import simulate_multiprogrammed
from repro.sim.simulator import Simulator, simulate_workload
from repro.txn.persist import OP_CLWB, OP_FENCE, OP_STORE
from repro.workloads.generator import generate_trace
from tests.sim.engine_oracle import run_single
from tests.sim.trace_work import count_trace_work

POINT = dict(n_ops=60, request_size=1024, footprint=1 << 18, seed=3, warmup_ops=8)


def _snapshot(result):
    return (
        result.total_time_ns,
        tuple(result.txn_latencies),
        tuple(sorted(result.stats.snapshot().items())),
    )


def _point(workload, scheme, fidelity="timing", **kw):
    """One production point through :func:`simulate_workload`."""
    kw = {**POINT, **kw}
    return _snapshot(
        simulate_workload(
            workload, scheme, base_config=SimConfig(), fidelity=fidelity, **kw
        )
    )


def _oracle(workload, scheme, fidelity="timing", **kw):
    """The same point through the per-op loop."""
    kw = {**POINT, **kw}
    cfg = dataclasses.replace(scheme_config(scheme, SimConfig()), fidelity=fidelity)
    trace = generate_trace(workload, track_payloads=cfg.functional, **kw)
    return _snapshot(run_single(cfg, trace.ops, trace.warmup_ops))


@pytest.fixture(autouse=True)
def _fresh_cache():
    trace_cache.clear()
    yield
    trace_cache.clear()


class TestBuildArrays:
    def test_decodes_kinds_args_payloads(self):
        ops = [(OP_STORE, 7), (OP_CLWB, 7, b"x" * 64), (OP_FENCE,)]
        arrays = build_arrays(ops)
        assert arrays.n == 3
        assert list(arrays.kinds) == [OP_STORE, OP_CLWB, OP_FENCE]
        assert arrays.args[0] == 7 and arrays.args[2] == 0
        assert arrays.payloads[1] == b"x" * 64

    def test_timing_trace_has_no_payload_list(self):
        arrays = build_arrays([(OP_STORE, 1), (OP_CLWB, 1), (OP_FENCE,)])
        assert arrays.payloads is None

    def test_unknown_opcode_rejected(self):
        with pytest.raises(SimulationError):
            build_arrays([(99, 0)])
        with pytest.raises(SimulationError):
            build_arrays([("store", 0)])


class TestBitIdentity:
    @pytest.mark.parametrize("scheme", EVALUATED_SCHEMES)
    def test_schemes_timing(self, scheme):
        # Fresh cache per scheme: each run records its own walk.
        assert _point("btree", scheme) == _oracle("btree", scheme)

    @pytest.mark.parametrize("workload", ["array", "queue", "hashtable"])
    def test_workloads_full_fidelity(self, workload):
        scheme = Scheme.SUPERMEM
        assert _point(workload, scheme, fidelity="full") == _oracle(
            workload, scheme, fidelity="full"
        )

    @pytest.mark.parametrize("warmup_ops", [0, 8])
    @pytest.mark.parametrize("fidelity", ["timing", "full"])
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_every_scheme_fidelity_and_warmup(self, scheme, fidelity, warmup_ops):
        kw = dict(n_ops=30, warmup_ops=warmup_ops)
        assert _point("queue", scheme, fidelity, **kw) == _oracle(
            "queue", scheme, fidelity, **kw
        )

    def test_sweep_replays_recorded_outcomes(self, monkeypatch):
        # Six schemes over one cached trace: one recording, five replays,
        # all bit-identical to the per-op oracle.
        work = count_trace_work(monkeypatch)
        for scheme in EVALUATED_SCHEMES:
            assert _point("rbtree", scheme) == _oracle("rbtree", scheme), scheme
        assert work["recorded"] == 1


class TestOutcomeReplayGuards:
    def test_mismatched_recording_rejected(self):
        trace = generate_trace("array", n_ops=20, request_size=256,
                               footprint=1 << 18, seed=2)
        arrays = build_arrays(trace.ops)
        bogus = ReplayOutcomes(
            OutcomeSegment(b"\x00" * (arrays.n - 1), [0.0] * (arrays.n - 1), {}),
            None,
            (),
        )
        with pytest.raises(SimulationError):
            Simulator(SimConfig()).run(trace.ops, arrays=arrays, outcomes=bogus)

    def test_segment_length_checked_by_engine(self):
        trace = generate_trace("array", n_ops=10, request_size=256,
                               footprint=1 << 18, seed=2)
        arrays = build_arrays(trace.ops)
        short = OutcomeSegment(b"\x00", [0.0], {})
        with pytest.raises(SimulationError):
            Simulator(SimConfig()).engine.run_batched_replay(arrays, short)


class TestCacheCounters:
    KW = dict(n_ops=20, request_size=256, footprint=1 << 18, seed=1, warmup_ops=0)

    def test_second_scheme_reuses_arrays_and_walk(self, monkeypatch):
        work = count_trace_work(monkeypatch)
        _point("array", Scheme.UNSEC, **self.KW)
        assert (work["decoded"], work["recorded"]) == (1, 1)
        _point("array", Scheme.SUPERMEM, **self.KW)
        assert (work["decoded"], work["recorded"]) == (1, 1)

    def test_multicore_cell_records_each_core_walk_once(self, monkeypatch):
        # A seven-scheme Figure 14 cell: the first scheme decodes each
        # core's trace and records its private walk, the other six reuse
        # both.
        work = count_trace_work(monkeypatch)
        for scheme in EVALUATED_SCHEMES:
            simulate_multiprogrammed(
                "array", scheme, n_programs=2, n_ops=20, request_size=256,
                seed=1,
            )
        assert (work["decoded"], work["recorded"]) == (2, 2)
