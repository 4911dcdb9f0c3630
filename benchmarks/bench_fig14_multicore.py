"""Benchmark + shape check for Figure 14 (multi-programmed latency).

Shape checks: WT stays the worst scheme at every program count; SuperMem
tracks the ideal WB; with 8 programs (every bank busy) CWC's benefit is at
least comparable to XBank's — the paper's Section 5.1.2 observation.
"""

from repro.core.schemes import Scheme
from repro.experiments import fig14
from tests.experiments.grids import run_view


def test_fig14_multicore(run_once, benchmark):
    points = run_once(
        run_view,
        fig14.points,
        fig14.specs("smoke"),
        lambda cell: cell[0] == "hashtable",
    )
    by_cell = {(p.n_programs, p.scheme): p.normalized for p in points}

    for count in (1, 4, 8):
        wt = by_cell[(count, Scheme.WT_BASE)]
        assert wt > 1.4
        assert by_cell[(count, Scheme.SUPERMEM)] <= by_cell[(count, Scheme.WB_IDEAL)] * 1.25
        assert by_cell[(count, Scheme.WT_CWC)] < wt
        assert by_cell[(count, Scheme.WT_XBANK)] < wt

    # All banks busy: coalescing >= spreading.
    assert by_cell[(8, Scheme.WT_CWC)] <= by_cell[(8, Scheme.WT_XBANK)] * 1.1

    benchmark.extra_info["normalized_latency"] = {
        f"{n}p/{s.label}": round(v, 3) for (n, s), v in by_cell.items()
    }
