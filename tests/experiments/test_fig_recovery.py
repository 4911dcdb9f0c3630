"""The fig-recovery sweep through the supervised runner.

The recovery kernel is the first non-``simulate`` PointSpec kernel, so
these tests pin the properties the runner owes every experiment —
bit-identical results at any job count, journal resume satisfying the
whole grid from disk — plus the sweep's own validation logic and the
rendered tables.
"""

import dataclasses

import pytest

from repro.common.errors import ConfigError
from repro.core.schemes import Scheme
from repro.experiments import fig_recovery, runner, suite
from repro.experiments.runner import PointSpec


def _run(**kwargs):
    """The smoke sweep as ``repro run fig-recovery`` runs it."""
    return suite.run("fig-recovery", "smoke", **kwargs)["fig-recovery"]


def test_parallel_results_bit_identical_to_serial():
    serial = _run(jobs=1)
    parallel = _run(jobs=2)
    assert serial == parallel


def test_journal_resume_satisfies_every_point(tmp_path, capsys):
    journal = str(tmp_path / "fig-recovery.jsonl")
    first = _run(journal=journal)
    capsys.readouterr()
    second = _run(journal=journal)
    assert first == second
    # The runner's accounting line: every point came from the journal.
    assert (
        f"[runner] fig-recovery: resumed={len(second)} retries=0 timeouts=0 "
        f"serial_fallbacks=0 torn_tails=0"
    ) in capsys.readouterr().err.splitlines()


def test_sweep_covers_the_section_six_grid():
    points = _run()
    headline = [
        p
        for p in points
        if p.rsr == "off" and p.dirty_frac == fig_recovery.BASE_DIRTY_FRAC
    ]
    capacities = {p.capacity_mb for p in headline}
    assert len(capacities) >= 3
    assert {p.scheme for p in headline} >= {Scheme.SUPERMEM, Scheme.SCA, Scheme.OSIRIS}
    assert any(p.rsr == "armed" for p in points)
    assert {p.dirty_frac for p in points} >= {0.0, 1.0}


def test_validate_rejects_a_non_linear_sca_scan():
    points = _run()
    largest = max(
        (
            p
            for p in points
            if p.scheme is Scheme.SCA and p.rsr == "off"
            and p.dirty_frac == fig_recovery.BASE_DIRTY_FRAC
        ),
        key=lambda p: p.capacity_mb,
    )
    broken = [
        dataclasses.replace(p, recovery_ns=1.0) if p is largest else p
        for p in points
    ]
    with pytest.raises(AssertionError, match="SCA"):
        fig_recovery.validate(broken)


def test_render_emits_both_tables():
    points = _run()
    text = fig_recovery.render(points)
    assert "Recovery cost vs memory capacity" in text
    assert "Recovery knobs" in text
    assert "SuperMem" in text and "SCA" in text and "Osiris" in text


def test_unknown_kernel_is_rejected():
    _, specs = fig_recovery.specs("smoke")
    spec = dataclasses.replace(specs[0], kernel="nonsense")
    with pytest.raises(ConfigError, match="kernel"):
        runner._run_point(spec)


def test_recovery_kernel_spec_round_trips_params():
    _, specs = fig_recovery.specs("smoke")
    spec = specs[0]
    assert isinstance(spec, PointSpec)
    assert spec.kernel == "recovery"
    params = dict(spec.kernel_params)
    assert set(params) == {"log_lines", "rsr", "dirty_frac"}
    result = runner._run_point(spec)
    assert result.total_time_ns > 0
    assert result.stats.get("recovery", "log_lines_scanned") == params["log_lines"]
