"""Figure 15: NVM write requests normalised to Unsec.

The paper's bands: WT = 2x at every size; WB = 1.03-1.16x at 256 B,
shrinking as the request size grows; SuperMem cuts 20-27 % (256 B),
35-42 % (1 KB), 45-48 % (4 KB) of WT's writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.schemes import EVALUATED_SCHEMES, Scheme
from repro.experiments.common import Scale, experiment_base_config, get_scale
from repro.experiments.report import render_table
from repro.experiments.runner import PointSpec, run_points
from repro.sim.validation import validate_result
from repro.workloads.base import WORKLOAD_NAMES

REQUEST_SIZES = (256, 1024, 4096)


@dataclass
class Fig15Point:
    workload: str
    request_size: int
    scheme: Scheme
    writes: int
    normalized: float


def run(
    scale: str | Scale = "default",
    request_sizes=REQUEST_SIZES,
    jobs: int = 1,
    journal: str | None = None,
) -> List[Fig15Point]:
    scale = get_scale(scale) if isinstance(scale, str) else scale
    base = experiment_base_config(scale)
    cells = [(workload, size) for workload in WORKLOAD_NAMES for size in request_sizes]
    specs = [
        PointSpec(
            workload=workload,
            scheme=scheme,
            n_ops=scale.n_ops,
            request_size=size,
            footprint=scale.footprint,
            base_config=base,
            seed=1,
        )
        for (workload, size) in cells
        for scheme in EVALUATED_SCHEMES
    ]
    results = iter(run_points(specs, jobs=jobs, label="fig15", journal=journal))
    points: List[Fig15Point] = []
    for workload, size in cells:
        baseline = None
        for scheme in EVALUATED_SCHEMES:
            result = next(results)
            validate_result(result, encrypted=(scheme is not Scheme.UNSEC))
            writes = result.surviving_writes
            if baseline is None:
                baseline = writes
            points.append(
                Fig15Point(
                    workload=workload,
                    request_size=size,
                    scheme=scheme,
                    writes=writes,
                    normalized=writes / baseline if baseline else 0.0,
                )
            )
    return points


def supermem_reduction_vs_wt(points: List[Fig15Point]) -> Dict[tuple, float]:
    """``(workload, size) -> fraction of WT writes removed by SuperMem``."""
    by_cell: Dict[tuple, Dict[Scheme, int]] = {}
    for p in points:
        by_cell.setdefault((p.workload, p.request_size), {})[p.scheme] = p.writes
    out = {}
    for cell, writes in by_cell.items():
        wt = writes.get(Scheme.WT_BASE)
        sm = writes.get(Scheme.SUPERMEM)
        if wt:
            out[cell] = (wt - sm) / wt
    return out


def render(points: List[Fig15Point]) -> str:
    sections = []
    for size in sorted({p.request_size for p in points}):
        cells: Dict[str, Dict[Scheme, float]] = {}
        for p in points:
            if p.request_size == size:
                cells.setdefault(p.workload, {})[p.scheme] = p.normalized
        rows = [
            [wl] + [cells[wl][s] for s in EVALUATED_SCHEMES]
            for wl in WORKLOAD_NAMES
            if wl in cells
        ]
        sections.append(
            render_table(
                f"Figure 15 ({size} B requests): NVM writes normalised to Unsec",
                ["workload"] + [s.label for s in EVALUATED_SCHEMES],
                rows,
                note="Paper shape: WT=2x everywhere; SuperMem reduction grows with size.",
            )
        )
    return "\n".join(sections)
