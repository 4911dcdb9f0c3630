"""Channel-count sensitivity: bank-conflict relief as channels grow.

A fig16-style sweep over ``MemoryConfig.n_channels`` at fixed
``n_banks``: every channel carries its own command bus, so splitting the
same eight banks over more channels removes request-serialisation
stalls. The sweep runs the two metadata-heaviest schemes — SuperMem
(counters XBank-striped across banks, hence across channels) and
SuperMem+BMT (adds tree-node lines, themselves bank-striped by line
index; see :class:`repro.crypto.tree_timed.TreeGeometry`) — because
their extra metadata traffic is what contends for the command bus in
the first place.

Every cell is a regular ``PointSpec`` through the supervised runner
pool, so ``--jobs`` parallelism, the resume journal, and the retry
policy are inherited; results are bit-identical at any job count.
:func:`validate` asserts the monotone shape — at fixed bank count,
adding channels never makes a scheme slower (beyond float jitter) —
and the CLI run fails loudly if the model drifts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.schemes import Scheme
from repro.experiments.common import Scale, experiment_base_config, get_scale
from repro.experiments.report import render_table
from repro.experiments.runner import PointSpec, run_points
from repro.sim.validation import validate_result
from repro.workloads.base import WORKLOAD_NAMES

#: Channel counts swept (n_banks stays 8: every count divides it).
CHANNEL_COUNTS = (1, 2, 4, 8)
#: The metadata-heavy schemes whose bus contention the sweep measures.
SCHEMES = (Scheme.SUPERMEM, Scheme.SUPERMEM_BMT)
#: Relative tolerance for the per-step monotonicity check. Splitting the
#: bus changes issue *ordering* too, which can shift individual
#: transaction latencies a hair either way; the trend check (the widest
#: configuration must beat the narrowest outright) stays strict.
_EPSILON = 1e-3


@dataclass
class FigChannelsPoint:
    """One (workload, n_channels, scheme) cell of the sweep."""

    workload: str
    n_channels: int
    scheme: Scheme
    avg_latency_ns: float
    #: Latency normalised to the same (workload, scheme) at 1 channel.
    normalized: float


def run(
    scale: Union[str, Scale] = "default",
    channel_counts=CHANNEL_COUNTS,
    request_size: int = 1024,
    jobs: int = 1,
    journal: Optional[str] = None,
) -> List[FigChannelsPoint]:
    """Execute the sweep through the supervised runner pool."""
    scale = get_scale(scale) if isinstance(scale, str) else scale
    cells: List[Tuple[str, int]] = [
        (workload, n_channels)
        for workload in WORKLOAD_NAMES
        for n_channels in channel_counts
    ]
    base = experiment_base_config(scale)
    specs = [
        PointSpec(
            workload=workload,
            scheme=scheme,
            n_ops=scale.n_ops,
            request_size=request_size,
            footprint=scale.footprint,
            base_config=dataclasses.replace(
                base,
                memory=dataclasses.replace(base.memory, n_channels=n_channels),
            ),
            seed=1,
        )
        for (workload, n_channels) in cells
        for scheme in SCHEMES
    ]
    results = iter(
        run_points(specs, jobs=jobs, label="fig-channels", journal=journal)
    )
    points: List[FigChannelsPoint] = []
    base_latency: Dict[Tuple[str, Scheme], float] = {}
    for workload, n_channels in cells:
        for scheme in SCHEMES:
            result = next(results)
            validate_result(result, encrypted=True)
            latency = result.avg_txn_latency_ns
            key = (workload, scheme)
            if key not in base_latency:
                base_latency[key] = latency
            points.append(
                FigChannelsPoint(
                    workload=workload,
                    n_channels=n_channels,
                    scheme=scheme,
                    avg_latency_ns=latency,
                    normalized=(
                        latency / base_latency[key] if base_latency[key] else 0.0
                    ),
                )
            )
    validate(points)
    return points


def validate(points: List[FigChannelsPoint]) -> None:
    """Assert the channel-relief shape on the swept points.

    At fixed bank count, growing ``n_channels`` splits the command bus:
    per (workload, scheme) the average latency must be monotone
    non-increasing in the channel count (within a scheduling-jitter
    band), and the widest configuration must beat the narrowest
    outright.
    """
    series: Dict[Tuple[str, Scheme], List[FigChannelsPoint]] = {}
    for p in points:
        series.setdefault((p.workload, p.scheme), []).append(p)
    for (workload, scheme), row in series.items():
        row = sorted(row, key=lambda p: p.n_channels)
        for narrow, wide in zip(row, row[1:]):
            assert (
                wide.avg_latency_ns
                <= narrow.avg_latency_ns * (1.0 + _EPSILON)
            ), (
                f"{workload}/{scheme.value}: {wide.n_channels} channels "
                f"({wide.avg_latency_ns} ns) slower than "
                f"{narrow.n_channels} ({narrow.avg_latency_ns} ns)"
            )
        if len(row) >= 2:
            assert row[-1].avg_latency_ns < row[0].avg_latency_ns, (
                f"{workload}/{scheme.value}: {row[-1].n_channels} channels "
                "shows no bank-conflict relief over "
                f"{row[0].n_channels}"
            )


def render(points: List[FigChannelsPoint]) -> str:
    counts = sorted({p.n_channels for p in points})
    tables = []
    for scheme in SCHEMES:
        norm: Dict[str, Dict[int, float]] = {}
        for p in points:
            if p.scheme is scheme:
                norm.setdefault(p.workload, {})[p.n_channels] = p.normalized
        rows = [
            [wl] + [norm[wl][n] for n in counts]
            for wl in WORKLOAD_NAMES
            if wl in norm
        ]
        tables.append(
            render_table(
                f"Channel sweep: {scheme.label} latency vs channels "
                "(normalised to 1 channel)",
                ["workload"] + [str(n) for n in counts],
                rows,
                note=(
                    "Monotone non-increasing: more channels split the "
                    "command bus, relieving bank-conflict serialisation "
                    "at fixed n_banks."
                ),
            )
        )
    return "\n".join(tables)
