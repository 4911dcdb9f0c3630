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

from repro.common.errors import ConfigError
from repro.core.schemes import EVALUATED_SCHEMES, Scheme
from repro.experiments.common import Scale, experiment_base_config, get_scale
from repro.experiments.report import render_table
from repro.experiments.runner import PointSpec, run_points
from repro.sim.validation import validate_result
from repro.workloads.base import WORKLOAD_NAMES

REQUEST_SIZES = (256, 1024, 4096)


@dataclass
class Fig13Point:
    workload: str
    request_size: int
    scheme: Scheme
    avg_latency_ns: float
    normalized: float


def specs(
    scale: str | Scale = "default",
    request_sizes=REQUEST_SIZES,
    base_config=None,
) -> tuple:
    """The Figure 13 grid as ``(cells, point_specs)``.

    ``cells`` is the ``(workload, request_size)`` grid in sweep order;
    ``point_specs`` holds one :class:`PointSpec` per cell x scheme
    (schemes innermost, :data:`EVALUATED_SCHEMES` order). Shared by
    :func:`run` and the figure-sweep benchmark (``bench/grids.py``),
    which times exactly this grid — one definition keeps the two in
    lockstep.
    """
    scale = get_scale(scale) if isinstance(scale, str) else scale
    base = base_config if base_config is not None else experiment_base_config(scale)
    cells = [(workload, size) for workload in WORKLOAD_NAMES for size in request_sizes]
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


def run(
    scale: str | Scale = "default",
    request_sizes=REQUEST_SIZES,
    jobs: int = 1,
    journal: str | None = None,
    base_config=None,
) -> List[Fig13Point]:
    """Run the full Figure 13 sweep; returns one point per cell.

    Every point runs at timing fidelity, the simulators' default.
    ``base_config`` overrides the scale's default :class:`SimConfig`.
    """
    if EVALUATED_SCHEMES[0] is not Scheme.UNSEC:
        # The first scheme of each cell is the normalization baseline; a
        # reordered EVALUATED_SCHEMES would silently normalise to the
        # wrong system instead of Unsec.
        raise ConfigError(
            f"EVALUATED_SCHEMES must start with Unsec (the normalization "
            f"baseline), got {EVALUATED_SCHEMES[0]!r}"
        )
    cells, point_specs = specs(
        scale,
        request_sizes=request_sizes,
        base_config=base_config,
    )
    results = iter(run_points(point_specs, jobs=jobs, label="fig13", journal=journal))
    points: List[Fig13Point] = []
    for workload, size in cells:
        baseline = None
        for scheme in EVALUATED_SCHEMES:
            result = next(results)
            validate_result(result, encrypted=(scheme is not Scheme.UNSEC))
            latency = result.avg_txn_latency_ns
            if baseline is None:
                baseline = latency
            points.append(
                Fig13Point(
                    workload=workload,
                    request_size=size,
                    scheme=scheme,
                    avg_latency_ns=latency,
                    normalized=latency / baseline if baseline else 0.0,
                )
            )
    return points


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
