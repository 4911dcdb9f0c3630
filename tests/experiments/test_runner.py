"""Tests for the parallel experiment runner: determinism and plumbing.

The load-bearing guarantees:

* ``jobs=N`` output is **bit-identical** to serial — point for point,
  including every stats counter an experiment's ``render`` might read;
* results come back in spec order, never completion order;
* fixed-seed golden digests pin the fig13, fig14, fig16 and fig-recovery
  smoke numbers, so neither the runner, the trace cache, the write-queue
  indexing or drain scheduler, the multicore interleave, nor the
  recovery kernel can silently shift results.
"""

import dataclasses
import enum
import hashlib

import pytest

from repro.common.errors import ConfigError
from repro.core.schemes import EVALUATED_SCHEMES, Scheme
from repro.experiments import common, fig13, fig14, fig16, fig_recovery
from repro.experiments.common import experiment_base_config, get_scale
from repro.experiments.runner import (
    PointSpec,
    RunnerReport,
    run_points,
    run_points_report,
)
from repro.sim.metrics import SimResult
from tests.experiments.grids import run_view

#: sha256 over the canonical serialization in :func:`_digest` for the
#: 1 KB cells of the smoke Figure 13 grid (:func:`_fig13_1kb`).
#: Regenerate ONLY for an intentional model change:
#:   PYTHONPATH=src:. python -c "from tests.experiments.test_runner import \
#:       _digest, _fig13_1kb; print(_digest(_fig13_1kb()))"
FIG13_SMOKE_1KB_DIGEST = (
    "a1357d6a717e15c834850fc4d8c4c30274591685e17ca46126092c81c354245f"
)


#: The same over the 4 KB cells, where the write queue stays full and
#: the drain scheduler and make-space loop run hardest:
#:   PYTHONPATH=src:. python -c "from tests.experiments.test_runner import \
#:       _digest, _fig13_4kb; print(_digest(_fig13_4kb()))"
FIG13_SMOKE_4KB_DIGEST = (
    "c31a8cd3e00014ea0fed893386ad11f907af4ec98cd9c06cc7bbc8a0fb36f452"
)


#: The same for Figure 14 over a subset that includes 8 programs sharing
#: the controller (out-of-order write-queue appends):
#:   PYTHONPATH=src:. python -c "from tests.experiments.test_runner import \
#:       _fig14_digest, _fig14_subset; print(_fig14_digest(_fig14_subset()))"
FIG14_SMOKE_DIGEST = (
    "c82f817666e95189bc55ed3078878302d4a97400144c79676b682dc6a94fad46"
)


#: The same over every field of every point of the smoke fig-recovery
#: grid: the priced recovery times and counts of all four recovery
#: paths. Regenerate ONLY for an intentional model change:
#:   PYTHONPATH=src:. python -c "from tests.experiments.test_runner import \
#:       _fields_digest; from tests.experiments.grids import run_view; \
#:       from repro.experiments import fig_recovery as f; \
#:       print(_fields_digest(run_view(f.points, f.specs('smoke'))))"
FIG_RECOVERY_SMOKE_DIGEST = (
    "3c697a7b76c3a70e7b632d3745cc08f5b0c13394c2a2cf197fded439b1142945"
)


#: The same over every point of the smoke Figure 16 grid: queue depths
#: from 8 to 128 move both drain watermarks and the counter coalescing
#: window. Regenerate ONLY for an intentional model change:
#:   PYTHONPATH=src:. python -c "from tests.experiments.test_runner import \
#:       _fields_digest; from tests.experiments.grids import run_view; \
#:       from repro.experiments import fig16 as f; \
#:       print(_fields_digest(run_view(f.points, f.specs('smoke'))))"
FIG16_SMOKE_DIGEST = (
    "0c9086dfa903df3376ff483024787a66f2f3b070a8fd65fe87a3c2f43095153d"
)


def _fig13_1kb(**runner):
    """The smoke Figure 13 points of the 1 KB cells."""
    return run_view(
        fig13.points, fig13.specs("smoke"), lambda cell: cell[1] == 1024, **runner
    )


def _fig13_4kb():
    """The smoke Figure 13 points of the 4 KB cells."""
    return run_view(fig13.points, fig13.specs("smoke"), lambda cell: cell[1] == 4096)


def _fig14_subset():
    """The smoke Figure 14 points of array and hashtable at 1 and 8 programs."""
    return run_view(
        fig14.points,
        fig14.specs("smoke"),
        lambda cell: cell[0] in ("array", "hashtable") and cell[1] in (1, 8),
    )


def _digest(points) -> str:
    canon = "\n".join(
        f"{p.workload}/{p.request_size}/{p.scheme.value}"
        f"={p.avg_latency_ns!r}/{p.normalized!r}"
        for p in points
    )
    return hashlib.sha256(canon.encode()).hexdigest()


def _fig14_digest(points) -> str:
    canon = "\n".join(
        f"{p.workload}/{p.n_programs}/{p.scheme.value}"
        f"={p.avg_latency_ns!r}/{p.normalized!r}"
        for p in points
    )
    return hashlib.sha256(canon.encode()).hexdigest()


def _fields_digest(points) -> str:
    canon = "\n".join(
        "/".join(
            value.value if isinstance(value, enum.Enum) else repr(value)
            for value in (getattr(p, f.name) for f in dataclasses.fields(p))
        )
        for p in points
    )
    return hashlib.sha256(canon.encode()).hexdigest()


def _specs(n_ops=12, schemes=(Scheme.UNSEC, Scheme.WT_BASE, Scheme.SUPERMEM)):
    base = experiment_base_config(get_scale("smoke"))
    return [
        PointSpec(
            workload=workload,
            scheme=scheme,
            n_ops=n_ops,
            request_size=256,
            footprint=1 << 20,
            base_config=base,
            seed=1,
        )
        for workload in ("array", "queue")
        for scheme in schemes
    ]


def _assert_identical(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.total_time_ns == right.total_time_ns
        assert left.txn_latencies == right.txn_latencies
        assert left.stats.snapshot() == right.stats.snapshot()


class TestRunPoints:
    def test_serial_matches_direct_simulation(self):
        from repro.sim.simulator import simulate_workload

        specs = _specs()
        results = run_points(specs, jobs=1)
        for spec, result in zip(specs, results):
            direct = simulate_workload(
                spec.workload,
                spec.scheme,
                n_ops=spec.n_ops,
                request_size=spec.request_size,
                footprint=spec.footprint,
                base_config=spec.base_config,
                seed=spec.seed,
            )
            assert result.total_time_ns == direct.total_time_ns
            assert result.stats.snapshot() == direct.stats.snapshot()

    def test_parallel_bit_identical_to_serial(self):
        """The core determinism guarantee, down to every stats counter."""
        specs = _specs()
        _assert_identical(
            run_points(specs, jobs=1), run_points(specs, jobs=2)
        )

    def test_multiprogrammed_specs(self):
        base = experiment_base_config(get_scale("smoke"))
        specs = [
            PointSpec(
                workload="queue",
                scheme=scheme,
                n_ops=8,
                request_size=256,
                footprint=None,
                base_config=base,
                seed=1,
                n_programs=2,
            )
            for scheme in (Scheme.UNSEC, Scheme.SUPERMEM)
        ]
        _assert_identical(
            run_points(specs, jobs=1), run_points(specs, jobs=2)
        )

    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigError):
            run_points(_specs(), jobs=0)

    def test_single_core_spec_rejects_workload_tuple(self):
        spec = dataclasses.replace(_specs()[0], workload=("array", "queue"))
        with pytest.raises(ConfigError):
            run_points([spec])

    def test_report_accounting(self, monkeypatch):
        from repro.sim import trace_cache
        from tests.sim.trace_work import count_trace_work

        specs = _specs(n_ops=5)
        trace_cache.clear()
        work = count_trace_work(monkeypatch)
        results, report = run_points_report(specs, jobs=1, label="unit")
        assert isinstance(report, RunnerReport)
        assert report.label == "unit"
        assert len(results) == len(specs)
        assert all(isinstance(result, SimResult) for result in results)
        # 2 workloads x 3 schemes: each workload's trace is generated,
        # decoded and walked once, then reused by the other two schemes.
        assert work == {"generated": 2, "decoded": 2, "recorded": 2}

    def test_progress_callback_sees_every_point(self):
        seen = []
        specs = _specs(n_ops=5)
        run_points(specs, jobs=1, progress=lambda done, total: seen.append((done, total)))
        assert seen == [(i + 1, len(specs)) for i in range(len(specs))]


@pytest.mark.slow
class TestFig13Determinism:
    def test_parallel_points_identical_and_golden(self):
        serial = _fig13_1kb()
        parallel = _fig13_1kb(jobs=4)
        # Point-for-point equality (dataclass equality covers workload,
        # size, scheme, raw latency, and the normalised value).
        assert serial == parallel
        assert _digest(serial) == FIG13_SMOKE_1KB_DIGEST
        assert _digest(parallel) == FIG13_SMOKE_1KB_DIGEST

    def test_golden_4kb(self):
        points = _fig13_4kb()
        assert {p.request_size for p in points} == {4096}
        assert _digest(points) == FIG13_SMOKE_4KB_DIGEST

    def test_baseline_guard_rejects_reordered_schemes(self, monkeypatch):
        monkeypatch.setattr(
            common, "EVALUATED_SCHEMES", tuple(reversed(EVALUATED_SCHEMES))
        )
        cells, _ = fig13.specs("smoke")
        with pytest.raises(ConfigError):
            fig13.points(cells, [])


@pytest.mark.slow
class TestFig14Determinism:
    def test_golden(self):
        points = _fig14_subset()
        assert {p.n_programs for p in points} == {1, 8}
        assert _fig14_digest(points) == FIG14_SMOKE_DIGEST


@pytest.mark.slow
class TestFig16Determinism:
    def test_golden(self):
        points = run_view(fig16.points, fig16.specs("smoke"))
        assert {p.wq_entries for p in points} == set(fig16.QUEUE_LENGTHS)
        assert _fields_digest(points) == FIG16_SMOKE_DIGEST


class TestFigRecoveryDeterminism:
    def test_golden(self):
        points = run_view(fig_recovery.points, fig_recovery.specs("smoke"))
        assert len(points) == 18
        assert _fields_digest(points) == FIG_RECOVERY_SMOKE_DIGEST
