"""Figure 14: multi-programmed transaction latency (1/4/8 programs).

Each of N cores runs the same workload in its own physical region; L3, the
memory controller, the write queue, and the counter cache are shared. The
paper's observation: with 4-8 programs every bank is busy, so CWC (which
removes writes) gains more than XBank (which only spreads them); SuperMem
still tracks the ideal WB.
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

PROGRAM_COUNTS = (1, 4, 8)


@dataclass
class Fig14Point:
    workload: str
    n_programs: int
    scheme: Scheme
    avg_latency_ns: float
    normalized: float


def specs(scale: str) -> tuple:
    """The ``(workload, n_programs)`` cells and one spec per cell x scheme."""
    scale = get_scale(scale)
    base = experiment_base_config(scale)
    cells = [
        (workload, n_programs)
        for workload in WORKLOAD_NAMES
        for n_programs in PROGRAM_COUNTS
    ]
    point_specs = [
        PointSpec(
            workload=workload,
            scheme=scheme,
            n_ops=scale.n_ops_multicore,
            request_size=1024,
            footprint=None,
            base_config=base,
            seed=1,
            n_programs=n_programs,
        )
        for (workload, n_programs) in cells
        for scheme in EVALUATED_SCHEMES
    ]
    return cells, point_specs


def points(cells, results) -> List[Fig14Point]:
    return [
        Fig14Point(workload, n_programs, scheme, latency, normalized)
        for (workload, n_programs), scheme, latency, normalized in normalise_to_unsec(
            cells, results, lambda result: result.avg_txn_latency_ns
        )
    ]


def render(points: List[Fig14Point]) -> str:
    sections = []
    for count in sorted({p.n_programs for p in points}):
        cells: Dict[str, Dict[Scheme, float]] = {}
        for p in points:
            if p.n_programs == count:
                cells.setdefault(p.workload, {})[p.scheme] = p.normalized
        rows = [
            [wl] + [cells[wl][s] for s in EVALUATED_SCHEMES]
            for wl in cells
        ]
        sections.append(
            render_table(
                f"Figure 14 ({count} program(s)): txn latency normalised to Unsec",
                ["workload"] + [s.label for s in EVALUATED_SCHEMES],
                rows,
                note="Paper shape: at 8 programs CWC >= XBank benefit; SuperMem ~ WB.",
            )
        )
    return "\n".join(sections)
