"""Tests for the related-work comparison experiment."""

import pytest

from repro.core.schemes import Scheme
from repro.experiments import related_work
from repro.experiments.related_work import RuntimeRow
from tests.experiments.grids import run_view


@pytest.fixture(scope="module")
def rows():
    return run_view(related_work.points, related_work.specs("smoke"))


@pytest.mark.slow
def test_runtime_rows_cover_all_schemes(rows):
    runtime = [r for r in rows if isinstance(r, RuntimeRow)]
    assert [r.scheme for r in runtime] == list(related_work.COMPARED)
    by_scheme = {r.scheme: r for r in runtime}
    # SuperMem must beat the WT baseline on latency and writes.
    assert (
        by_scheme[Scheme.SUPERMEM].avg_latency_ns
        < by_scheme[Scheme.WT_BASE].avg_latency_ns
    )
    assert by_scheme[Scheme.SUPERMEM].nvm_writes < by_scheme[Scheme.WT_BASE].nvm_writes


def test_recovery_rows_scale_linearly():
    rows = [related_work.recovery_row(n_lines) for n_lines in (32, 128)]
    assert rows[0].supermem_trials == 0
    assert rows[1].supermem_trials == 0
    assert rows[1].osiris_trials > 3 * rows[0].osiris_trials


@pytest.mark.slow
def test_render(rows):
    text = related_work.render(rows)
    assert "Related work" in text
    assert "Osiris" in text and "SCA" in text
