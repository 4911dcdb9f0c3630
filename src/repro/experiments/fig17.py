"""Figure 17: sensitivity to the counter-cache size.

(a) counter-cache hit rate and (b) workload execution time, sweeping the
counter cache from 1 KB to 4 MB with a 32-entry write queue and 1 KB
transactions. The paper's shape: queue and B-tree are insensitive (their
accesses are sequential/clustered, so even a tiny cache hits); array, hash
table and RB-tree gain a few percent of hit rate and 1-5 % of execution
time as the cache grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.schemes import Scheme
from repro.experiments.common import Scale, experiment_base_config, get_scale
from repro.experiments.report import render_table
from repro.experiments.runner import PointSpec, run_points
from repro.sim.validation import validate_result
from repro.workloads.base import WORKLOAD_NAMES

CACHE_SIZES = (1 << 10, 16 << 10, 256 << 10, 4 << 20)


@dataclass
class Fig17Point:
    workload: str
    counter_cache_size: int
    hit_rate: float
    total_time_ns: float


def run(
    scale: str | Scale = "default",
    cache_sizes=CACHE_SIZES,
    request_size: int = 1024,
    jobs: int = 1,
    journal: str | None = None,
) -> List[Fig17Point]:
    scale = get_scale(scale) if isinstance(scale, str) else scale
    cells = [(workload, size) for workload in WORKLOAD_NAMES for size in cache_sizes]
    # Cache-sensitivity needs steady state: longer measured runs with a
    # warmup so cross-transaction reuse (what a bigger cache captures)
    # dominates cold compulsory misses.
    specs = [
        PointSpec(
            workload=workload,
            scheme=Scheme.SUPERMEM,
            n_ops=4 * scale.n_ops,
            request_size=request_size,
            footprint=scale.footprint,
            base_config=experiment_base_config(scale, counter_cache_size=size),
            seed=1,
            warmup_ops=scale.n_ops,
        )
        for (workload, size) in cells
    ]
    results = iter(run_points(specs, jobs=jobs, label="fig17", journal=journal))
    points: List[Fig17Point] = []
    for workload, size in cells:
        result = next(results)
        validate_result(result, encrypted=True)
        # Report the read-path hit rate: those are the hits that let
        # OTP generation overlap the data fetch (Figure 2b).
        points.append(
            Fig17Point(
                workload=workload,
                counter_cache_size=size,
                hit_rate=result.counter_cache_read_hit_rate,
                total_time_ns=result.total_time_ns,
            )
        )
    return points


def _size_label(size: int) -> str:
    if size >= 1 << 20:
        return f"{size >> 20}MB"
    return f"{size >> 10}KB"


def render(points: List[Fig17Point]) -> str:
    sizes = sorted({p.counter_cache_size for p in points})
    hits: Dict[str, Dict[int, float]] = {}
    times: Dict[str, Dict[int, float]] = {}
    for p in points:
        hits.setdefault(p.workload, {})[p.counter_cache_size] = p.hit_rate
        times.setdefault(p.workload, {})[p.counter_cache_size] = p.total_time_ns
    rows_a = [
        [wl] + [hits[wl][s] for s in sizes] for wl in WORKLOAD_NAMES if wl in hits
    ]
    rows_b = []
    for wl in WORKLOAD_NAMES:
        if wl not in times:
            continue
        base = times[wl][sizes[0]]
        rows_b.append([wl] + [times[wl][s] / base for s in sizes])
    labels = [_size_label(s) for s in sizes]
    return "\n".join(
        [
            render_table(
                "Figure 17a: counter cache hit rate vs cache size (SuperMem)",
                ["workload"] + labels,
                rows_a,
                note="Paper shape: queue/btree flat; array/hashtable/rbtree improve.",
            ),
            render_table(
                "Figure 17b: execution time vs cache size (normalised to smallest)",
                ["workload"] + labels,
                rows_b,
                note="Paper shape: 1-5% improvement for the poor-locality workloads.",
            ),
        ]
    )
