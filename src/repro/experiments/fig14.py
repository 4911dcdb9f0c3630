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
from repro.experiments.common import Scale, experiment_base_config, get_scale
from repro.experiments.report import render_table
from repro.experiments.runner import PointSpec, run_points
from repro.sim.validation import validate_result
from repro.workloads.base import WORKLOAD_NAMES

PROGRAM_COUNTS = (1, 4, 8)


@dataclass
class Fig14Point:
    workload: str
    n_programs: int
    scheme: Scheme
    avg_latency_ns: float
    normalized: float


def run(
    scale: str | Scale = "default",
    program_counts=PROGRAM_COUNTS,
    workloads=WORKLOAD_NAMES,
    request_size: int = 1024,
    jobs: int = 1,
    journal: str | None = None,
) -> List[Fig14Point]:
    scale = get_scale(scale) if isinstance(scale, str) else scale
    base = experiment_base_config(scale)
    cells = [
        (workload, n_programs)
        for workload in workloads
        for n_programs in program_counts
    ]
    specs = [
        PointSpec(
            workload=workload,
            scheme=scheme,
            n_ops=scale.n_ops_multicore,
            request_size=request_size,
            footprint=None,
            base_config=base,
            seed=1,
            n_programs=n_programs,
        )
        for (workload, n_programs) in cells
        for scheme in EVALUATED_SCHEMES
    ]
    results = iter(run_points(specs, jobs=jobs, label="fig14", journal=journal))
    points: List[Fig14Point] = []
    for workload, n_programs in cells:
        baseline = None
        for scheme in EVALUATED_SCHEMES:
            result = next(results)
            validate_result(result, encrypted=(scheme is not Scheme.UNSEC))
            latency = result.avg_txn_latency_ns
            if baseline is None:
                baseline = latency
            points.append(
                Fig14Point(
                    workload=workload,
                    n_programs=n_programs,
                    scheme=scheme,
                    avg_latency_ns=latency,
                    normalized=latency / baseline if baseline else 0.0,
                )
            )
    return points


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
