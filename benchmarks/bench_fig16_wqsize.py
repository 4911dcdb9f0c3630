"""Benchmark + shape check for Figure 16 (write-queue size sensitivity).

Shape checks: the fraction of coalesced counter writes grows with the
queue length for every workload, and SuperMem's transaction latency at 32
entries is no worse than at 8 entries.
"""

from repro.experiments import fig16
from tests.experiments.grids import run_view


def test_fig16_wq_sensitivity(run_once, benchmark):
    points = run_once(run_view, fig16.points, fig16.specs("smoke"))
    by_workload = {}
    for p in points:
        by_workload.setdefault(p.workload, {})[p.wq_entries] = p

    for workload, series in by_workload.items():
        fractions = [series[n].reduced_counter_write_fraction for n in (8, 32, 128)]
        assert fractions[0] < fractions[-1], f"{workload}: no growth"
        assert (
            series[32].supermem_latency_ns <= series[8].supermem_latency_ns * 1.02
        ), f"{workload}: longer queue must not hurt"

    benchmark.extra_info["coalesced_fraction"] = {
        f"{w}@{n}": round(series[n].reduced_counter_write_fraction, 3)
        for w, series in by_workload.items()
        for n in series
    }
