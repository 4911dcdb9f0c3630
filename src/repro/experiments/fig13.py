"""Figure 13: single-core transaction execution latency.

Five workloads x seven schemes x three transaction request sizes (256 B,
1 KB, 4 KB). The paper reports average transaction execution latency; we
normalise to Unsec per (workload, size) so the scheme effect is explicit.

Expected shape (paper Section 5.1.1): WT at 1.7-2x Unsec; WT+CWC cutting
17-48 % of WT's latency, growing with request size; WT+XBank cutting up to
45 %; SuperMem approximately equal to the ideal WB, slightly above Unsec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.schemes import EVALUATED_SCHEMES, Scheme
from repro.experiments.common import (
    experiment_base_config,
    get_scale,
    normalise_to_unsec,
)
from repro.experiments.report import render_table
from repro.experiments.runner import PointSpec
from repro.workloads.base import WORKLOAD_NAMES

REQUEST_SIZES = (256, 1024, 4096)


@dataclass
class Fig13Point:
    workload: str
    request_size: int
    scheme: Scheme
    avg_latency_ns: float
    normalized: float


def specs(scale: str) -> tuple:
    """The Figure 13 grid as ``(cells, point_specs)``.

    ``cells`` is the ``(workload, request_size)`` grid in sweep order;
    ``point_specs`` holds one :class:`PointSpec` per cell x scheme
    (schemes innermost, :data:`EVALUATED_SCHEMES` order). Figure 15
    reads the same grid, and the figure-sweep benchmark
    (``bench/grids.py``) times exactly this grid — one definition keeps
    the three in lockstep.
    """
    scale = get_scale(scale)
    base = experiment_base_config(scale)
    cells = [(workload, size) for workload in WORKLOAD_NAMES for size in REQUEST_SIZES]
    point_specs = [
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
    return cells, point_specs


def points(cells, results) -> List[Fig13Point]:
    """One point per cell x scheme: latency normalised to Unsec."""
    return [
        Fig13Point(workload, size, scheme, latency, normalized)
        for (workload, size), scheme, latency, normalized in normalise_to_unsec(
            cells, results, lambda result: result.avg_txn_latency_ns
        )
    ]


def render(points: List[Fig13Point]) -> str:
    """One markdown table per request size (13a/13b/13c)."""
    sections = []
    sizes = sorted({p.request_size for p in points})
    for size in sizes:
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
                f"Figure 13 ({size} B requests): txn latency normalised to Unsec",
                ["workload"] + [s.label for s in EVALUATED_SCHEMES],
                rows,
                note="Paper shape: WT~1.7-2x; SuperMem ~ WB; CWC benefit grows with size.",
            )
        )
    return "\n".join(sections)
