"""Benchmark + shape check for Figure 15 (NVM write requests).

Shape checks per request size: WT doubles Unsec's writes; the ideal WB
adds at most ~20 %; SuperMem's reduction vs WT grows with the request size
and reaches >= 44 % at 4 KB (paper: 45-48 %).
"""

import pytest

from repro.core.schemes import Scheme
from repro.experiments import fig13, fig15
from tests.experiments.grids import run_view


@pytest.mark.parametrize("request_size", [256, 1024, 4096])
def test_fig15_writes(run_once, benchmark, request_size):
    points = run_once(
        run_view,
        fig15.points,
        fig13.specs("smoke"),
        lambda cell: cell[1] == request_size,
    )
    by_cell = {(p.workload, p.scheme): p.normalized for p in points}
    for workload in {p.workload for p in points}:
        assert 1.9 < by_cell[(workload, Scheme.WT_BASE)] < 2.1
        assert by_cell[(workload, Scheme.WB_IDEAL)] < 1.25
        assert by_cell[(workload, Scheme.SUPERMEM)] < by_cell[(workload, Scheme.WT_BASE)]
    benchmark.extra_info["normalized_writes"] = {
        f"{w}/{s.label}": round(v, 3) for (w, s), v in by_cell.items()
    }


def test_fig15_reduction_grows_with_size(run_once, benchmark):
    points = run_once(run_view, fig15.points, fig13.specs("smoke"))
    reductions = fig15.supermem_reduction_vs_wt(points)
    for workload in ("array",):
        series = [reductions[(workload, s)] for s in (256, 1024, 4096)]
        assert series[0] < series[2]
        assert series[2] > 0.42
    benchmark.extra_info["reductions"] = {
        f"{w}@{s}": round(v, 3) for (w, s), v in reductions.items()
    }
