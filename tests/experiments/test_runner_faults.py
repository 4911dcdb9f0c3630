"""Fault tolerance and resume of the sweep runner.

Exercises the machinery the CLI drills exercise in CI: injected crash /
hang / corrupt faults, bounded retry, the serial in-process fallback,
structured failures, and journal resume — all asserting the recovered
sweep is bit-identical to an undisturbed one.
"""

import pytest

from repro.common.errors import SweepError
from repro.core.schemes import Scheme
from repro.experiments.common import experiment_base_config, get_scale
from repro.experiments.faults import (
    FAULT_CORRUPT,
    FAULT_CRASH,
    FAULT_ENV,
    FAULT_HANG,
    FaultPlan,
    PointFault,
)
from repro.experiments.journal import SweepJournal, spec_digest
from repro.experiments.runner import (
    PointFailure,
    PointSpec,
    RunnerPolicy,
    run_points,
    run_points_report,
)


def _specs(n=4, n_ops=5):
    base = experiment_base_config(get_scale("smoke"))
    schemes = (Scheme.UNSEC, Scheme.SUPERMEM)
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
    ][:n]


#: Fast retry budget so fault tests don't sleep through real backoff.
FAST = RunnerPolicy(max_attempts=3, backoff_s=0.0)


def _assert_identical(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.total_time_ns == right.total_time_ns
        assert left.txn_latencies == right.txn_latencies
        assert left.stats.snapshot() == right.stats.snapshot()


class TestSerialFaults:
    def test_transient_crash_is_retried_bit_identically(self):
        specs = _specs()
        clean = run_points(specs, jobs=1)
        faults = FaultPlan({1: PointFault(FAULT_CRASH)})
        results, report = run_points_report(
            specs, jobs=1, policy=FAST, faults=faults
        )
        assert report.retries >= 1 and not report.failures
        _assert_identical(clean, results)

    def test_transient_corrupt_is_retried(self):
        specs = _specs()
        faults = FaultPlan({0: PointFault(FAULT_CORRUPT)})
        results, report = run_points_report(
            specs, jobs=1, policy=FAST, faults=faults
        )
        assert report.retries >= 1 and not report.failures
        assert all(r is not None for r in results)

    def test_persistent_fault_becomes_structured_failure(self):
        specs = _specs()
        faults = FaultPlan({2: PointFault(FAULT_CRASH, times=99)})
        results, report = run_points_report(
            specs, jobs=1, policy=FAST, faults=faults
        )
        assert results[2] is None
        assert [r is not None for r in results] == [True, True, False, True]
        (failure,) = report.failures
        assert isinstance(failure, PointFailure)
        assert failure.index == 2
        assert failure.attempts == FAST.max_attempts
        assert failure.exc_type == "InjectedFault"
        assert failure.label == specs[2].label()
        assert failure.digest == spec_digest(specs[2])

    def test_run_points_raises_sweep_error(self):
        specs = _specs()
        faults = FaultPlan({0: PointFault(FAULT_CRASH, times=99)})
        with pytest.raises(SweepError) as exc_info:
            run_points(specs, jobs=1, policy=FAST, faults=faults)
        assert "InjectedFault" in str(exc_info.value)

    def test_env_plan_is_honoured(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "point:0:corrupt")
        _, report = run_points_report(_specs(n=2), jobs=1, policy=FAST)
        assert report.retries >= 1 and not report.failures


class TestParallelFaults:
    def test_worker_crash_is_survived_bit_identically(self):
        specs = _specs()
        clean = run_points(specs, jobs=1)
        faults = FaultPlan({1: PointFault(FAULT_CRASH)})
        results, report = run_points_report(
            specs, jobs=2, policy=FAST, faults=faults
        )
        # One injected death costs exactly one retried attempt.
        assert report.retries == 1 and not report.failures
        _assert_identical(clean, results)

    def test_hung_worker_is_killed_by_timeout(self):
        specs = _specs()
        clean = run_points(specs, jobs=1)
        faults = FaultPlan({0: PointFault(FAULT_HANG)})
        policy = RunnerPolicy(point_timeout_s=2.0, max_attempts=3, backoff_s=0.0)
        results, report = run_points_report(
            specs, jobs=2, policy=policy, faults=faults
        )
        assert report.timeouts >= 1 and not report.failures
        _assert_identical(clean, results)

    def test_serial_fallback_rescues_worker_only_fault(self):
        # The fault fires for exactly the parallel attempts; the fallback
        # (attempt max_attempts + 1) runs clean in the parent.
        specs = _specs()
        clean = run_points(specs, jobs=1)
        faults = FaultPlan({3: PointFault(FAULT_CRASH, times=FAST.max_attempts)})
        results, report = run_points_report(
            specs, jobs=2, policy=FAST, faults=faults
        )
        assert report.serial_fallbacks == 1 and not report.failures
        _assert_identical(clean, results)

    def test_persistent_parallel_fault_fails_only_its_point(self):
        specs = _specs()
        faults = FaultPlan({1: PointFault(FAULT_CRASH, times=99)})
        results, report = run_points_report(
            specs, jobs=2, policy=FAST, faults=faults
        )
        assert results[1] is None
        assert all(results[i] is not None for i in (0, 2, 3))
        (failure,) = report.failures
        assert failure.index == 1


class TestJournalResume:
    def test_resume_is_bit_identical_and_skips_work(self, tmp_path):
        specs = _specs()
        path = str(tmp_path / "journal.jsonl")
        first, report1 = run_points_report(specs, jobs=1, journal=path)
        assert report1.resumed == 0
        assert len(SweepJournal(path)) == len(specs)

        second, report2 = run_points_report(specs, jobs=1, journal=path)
        assert report2.resumed == len(specs)
        _assert_identical(first, second)

    def test_partial_journal_resumes_the_prefix(self, tmp_path):
        specs = _specs()
        path = str(tmp_path / "journal.jsonl")
        # A sweep killed after two points leaves a two-record journal.
        run_points_report(specs[:2], jobs=1, journal=path)
        results, report = run_points_report(specs, jobs=1, journal=path)
        assert report.resumed == 2
        _assert_identical(run_points(specs, jobs=1), results)

    def test_torn_tail_is_reported_on_resume(self, tmp_path, capsys):
        specs = _specs(n=2)
        path = tmp_path / "journal.jsonl"
        first, _ = run_points_report(specs, jobs=1, journal=str(path))
        # A kill mid-append leaves a half-written last line.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "point", "dig')
        capsys.readouterr()
        resumed, report = run_points_report(specs, jobs=1, journal=str(path))
        _assert_identical(first, resumed)
        assert report.resumed == 2
        assert report.torn_tails == 1
        (line,) = [
            line
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("[runner] sweep: resumed=")
        ]
        assert " serial_fallbacks=0 torn_tails=1" in line

    def test_open_journal_object_is_accepted(self, tmp_path):
        specs = _specs(n=2)
        journal = SweepJournal(str(tmp_path / "journal.jsonl"))
        run_points_report(specs, jobs=1, journal=journal)
        assert len(journal) == 2

    def test_failures_are_journaled_for_post_mortem(self, tmp_path):
        specs = _specs()
        path = str(tmp_path / "journal.jsonl")
        faults = FaultPlan({0: PointFault(FAULT_CRASH, times=99)})
        run_points_report(specs, jobs=1, policy=FAST, faults=faults, journal=path)
        reloaded = SweepJournal(path)
        assert spec_digest(specs[0]) in reloaded.failures
        # A later fault-free run resumes the 3 completed points and
        # re-executes (successfully) only the previously failed one.
        results, report = run_points_report(specs, jobs=1, journal=path)
        assert report.resumed == len(specs) - 1 and not report.failures
        _assert_identical(run_points(specs, jobs=1), results)
