"""Fidelity-mode equivalence: ``timing`` must be a pure fast path.

``SimConfig.fidelity = "timing"`` skips functional byte crypto and NVM
payload bookkeeping but must charge *identical* latencies and count
*identical* events — the whole point of the mode is that experiment
results are bit-for-bit the same, only cheaper. These tests pin that:

* per-point: total time, every transaction latency, and every stats
  counter agree between ``full`` and ``timing`` across schemes and
  workloads (including the ``array`` workload, whose op stream once
  diverged between the modes — see ``ArrayWorkload.run_op``);
* sweep-level: the fig13 smoke sweep (always timing fidelity) keeps the
  golden digest pinned in test_runner.py, and every point of its grid
  simulates identically at full fidelity;
* no byte work: at timing fidelity no pad, counter-block image, tree
  leaf or MAC is built, and no replayed trace carries a payload, for
  every scheme on both the single-core and the multi-programmed kernel;
* config plumbing: ``functional`` is derived from ``fidelity`` alone,
  so replacing a timing config's fidelity with ``"full"`` restores the
  functional byte path.
"""

import dataclasses

import pytest

from repro.common.config import SimConfig
from repro.common.errors import ConfigError
from repro.core.schemes import Scheme
from repro.core.system import CounterStore, SecureMemorySystem
from repro.crypto.engine import PRFPadEngine
from repro.crypto.integrity import MerkleCounterTree
from repro.experiments import fig13
from repro.experiments.common import experiment_base_config, get_scale
from repro.memory.nvm import NVMStore
from repro.sim import multicore, simulator
from repro.sim.multicore import simulate_multiprogrammed
from repro.sim.simulator import simulate_workload
from repro.sim.trace_cache import trace_arrays

from tests.experiments.test_runner import FIG13_SMOKE_1KB_DIGEST, _digest


def _point(fidelity: str, workload: str, scheme: Scheme, size: int = 256):
    scale = get_scale("smoke")
    base = experiment_base_config(scale)
    return simulate_workload(
        workload,
        scheme,
        n_ops=12,
        request_size=size,
        footprint=1 << 20,
        seed=1,
        base_config=base,
        fidelity=fidelity,
    )


class TestConfig:
    def test_timing_fidelity_forces_non_functional(self):
        cfg = SimConfig(fidelity="timing")
        assert cfg.functional is False

    def test_full_fidelity_keeps_functional(self):
        cfg = SimConfig(fidelity="full")
        assert cfg.functional is True

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(fidelity="fast-and-loose")

    def test_replace_to_full_restores_functional(self):
        """``functional`` cannot go stale across ``replace(fidelity=...)``."""
        timing = SimConfig(fidelity="timing")
        full_again = dataclasses.replace(timing, fidelity="full")
        assert full_again.functional is True
        assert SecureMemorySystem(full_again).cipher is not None


class TestPointEquivalence:
    @pytest.mark.parametrize(
        "scheme",
        [
            Scheme.UNSEC,
            Scheme.WT_BASE,
            Scheme.SUPERMEM,
            Scheme.SUPERMEM_BMT,
            Scheme.SCA,
            Scheme.OSIRIS,
        ],
    )
    @pytest.mark.parametrize("workload", ["array", "btree", "queue"])
    def test_timing_matches_full(self, workload, scheme):
        full = _point("full", workload, scheme)
        timing = _point("timing", workload, scheme)
        assert full.total_time_ns == timing.total_time_ns
        assert full.txn_latencies == timing.txn_latencies
        assert full.stats.snapshot() == timing.stats.snapshot()


def _simulate_spec(spec, fidelity: str):
    return simulate_workload(
        spec.workload,
        spec.scheme,
        n_ops=spec.n_ops,
        request_size=spec.request_size,
        footprint=spec.footprint,
        base_config=spec.base_config,
        seed=spec.seed,
        warmup_ops=spec.warmup_ops,
        counter_organization=spec.counter_organization,
        fidelity=fidelity,
    )


class TestSweepDigest:
    @pytest.mark.slow
    def test_fig13_smoke_digest_identical_across_fidelities(self):
        points = fig13.run("smoke", request_sizes=(1024,))
        assert _digest(points) == FIG13_SMOKE_1KB_DIGEST
        _, specs = fig13.specs("smoke", request_sizes=(1024,))
        for spec in specs:
            full = _simulate_spec(spec, "full")
            timing = _simulate_spec(spec, "timing")
            assert full.total_time_ns == timing.total_time_ns, spec.label()
            assert full.txn_latencies == timing.txn_latencies, spec.label()
            assert full.stats.snapshot() == timing.stats.snapshot(), spec.label()


def _refuse(*args, **kwargs):
    raise AssertionError("timing fidelity did functional byte work")


class TestTimingDoesNoByteWork:
    """Timing fidelity charges the crypto and metadata latencies without
    building a pad, a counter-block image, a tree leaf or a MAC."""

    @pytest.fixture
    def replayed(self, monkeypatch):
        """Make every byte-work entry point raise; collect the traces
        the kernels replay."""
        for owner, name in (
            (PRFPadEngine, "pad"),
            (PRFPadEngine, "pads"),
            (CounterStore, "serialize_block"),
            (MerkleCounterTree, "update_leaf"),
            (NVMStore, "set_mac"),
        ):
            monkeypatch.setattr(owner, name, _refuse)
        traces = []
        for module in (simulator, multicore):

            def capture(*args, _generate=module.cached_generate_trace, **kwargs):
                trace = _generate(*args, **kwargs)
                traces.append(trace)
                return trace

            monkeypatch.setattr(module, "cached_generate_trace", capture)
        return traces

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_default_points_complete(self, scheme, replayed):
        simulate_workload("hashtable", scheme, n_ops=40)
        simulate_multiprogrammed("hashtable", scheme, n_programs=2, n_ops=20)
        assert len(replayed) == 3
        for trace in replayed:
            assert all(len(op) < 3 or op[2] is None for op in trace.ops)
            assert trace_arrays(trace).payloads is None
