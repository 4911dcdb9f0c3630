"""Figure 15: NVM write requests normalised to Unsec.

The paper's bands: WT = 2x at every size; WB = 1.03-1.16x at 256 B,
shrinking as the request size grows; SuperMem cuts 20-27 % (256 B),
35-42 % (1 KB), 45-48 % (4 KB) of WT's writes. The paper reads this
figure off the Figure 13 runs, and so does this module: it has no grid
of its own, only a view of :func:`repro.experiments.fig13.specs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.schemes import EVALUATED_SCHEMES, Scheme
from repro.experiments.common import normalise_to_unsec
from repro.experiments.report import render_table
from repro.workloads.base import WORKLOAD_NAMES


@dataclass
class Fig15Point:
    workload: str
    request_size: int
    scheme: Scheme
    writes: int
    normalized: float


def points(cells, results) -> List[Fig15Point]:
    """A second view of the Figure 13 grid: NVM writes per cell x scheme."""
    return [
        Fig15Point(workload, size, scheme, writes, normalized)
        for (workload, size), scheme, writes, normalized in normalise_to_unsec(
            cells, results, lambda result: result.surviving_writes
        )
    ]


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
