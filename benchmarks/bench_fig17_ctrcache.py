"""Benchmark + shape check for Figure 17 (counter-cache size sensitivity).

Shape checks: queue and B-tree hit rates are flat across cache sizes
(sequential/clustered accesses); the poor-locality workloads' hit rates
never degrade as the cache grows; execution time does not get worse with a
bigger cache.
"""

from repro.experiments import fig17
from tests.experiments.grids import run_view

SIZES = (1 << 10, 16 << 10, 256 << 10)


def test_fig17_counter_cache_sensitivity(run_once, benchmark):
    points = run_once(
        run_view, fig17.points, fig17.specs("smoke"), lambda cell: cell[1] in SIZES
    )
    by_cell = {(p.workload, p.counter_cache_size): p for p in points}

    for workload in ("queue", "btree"):
        rates = [by_cell[(workload, s)].hit_rate for s in SIZES]
        assert max(rates) - min(rates) < 0.1, f"{workload} should be size-insensitive"

    for workload in ("array", "hashtable", "rbtree"):
        small = by_cell[(workload, SIZES[0])]
        big = by_cell[(workload, SIZES[-1])]
        assert big.hit_rate >= small.hit_rate - 0.01
        assert big.total_time_ns <= small.total_time_ns * 1.02

    benchmark.extra_info["hit_rates"] = {
        f"{w}@{s}": round(by_cell[(w, s)].hit_rate, 4)
        for (w, s) in by_cell
    }
