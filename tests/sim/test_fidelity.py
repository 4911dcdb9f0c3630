"""Fidelity-mode equivalence: ``timing`` must be a pure fast path.

``SimConfig.fidelity = "timing"`` skips functional byte crypto and NVM
payload bookkeeping but must charge *identical* latencies and count
*identical* events — the whole point of the mode is that experiment
results are bit-for-bit the same, only cheaper. These tests pin that:

* per-point: total time, every transaction latency, and every stats
  counter agree between ``full`` and ``timing`` across schemes and
  workloads (including the ``array`` workload, whose op stream once
  diverged between the modes — see ``ArrayWorkload.run_op``);
* sweep-level: the fig13 smoke golden digest is the same under both
  fidelities, and equals the pinned constant in test_runner.py;
* config plumbing: ``functional`` is derived from ``fidelity`` alone,
  so replacing a timing config's fidelity with ``"full"`` restores the
  functional byte path.
"""

import dataclasses

import pytest

from repro.common.config import SimConfig
from repro.common.errors import ConfigError
from repro.core.schemes import Scheme
from repro.core.system import SecureMemorySystem
from repro.experiments import fig13
from repro.experiments.common import experiment_base_config, get_scale
from repro.sim.simulator import simulate_workload

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


class TestSweepDigest:
    @pytest.mark.slow
    def test_fig13_smoke_digest_identical_across_fidelities(self):
        timing = fig13.run("smoke", request_sizes=(1024,), fidelity="timing")
        full = fig13.run("smoke", request_sizes=(1024,), fidelity="full")
        assert _digest(timing) == FIG13_SMOKE_1KB_DIGEST
        assert _digest(full) == FIG13_SMOKE_1KB_DIGEST
