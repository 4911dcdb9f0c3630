"""Figure 16: sensitivity to the write-queue length (8 to 128 entries).

(a) the share of counter writes SuperMem removes relative to WT — a
longer queue gives CWC more residency to merge against, plateauing around
32 entries; (b) the average transaction latency, which improves a few
percent from 8 to 32 entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.schemes import Scheme
from repro.experiments.common import experiment_base_config, get_scale
from repro.experiments.report import render_table
from repro.experiments.runner import PointSpec
from repro.sim.validation import validate_result
from repro.workloads.base import WORKLOAD_NAMES

QUEUE_LENGTHS = (8, 16, 32, 64, 128)


@dataclass
class Fig16Point:
    workload: str
    wq_entries: int
    reduced_counter_write_fraction: float
    supermem_latency_ns: float


def specs(scale: str) -> tuple:
    """The ``(workload, wq_entries)`` cells; a WT then a SuperMem spec each."""
    scale = get_scale(scale)
    cells = [
        (workload, entries)
        for workload in WORKLOAD_NAMES
        for entries in QUEUE_LENGTHS
    ]
    point_specs = [
        PointSpec(
            workload=workload,
            scheme=scheme,
            n_ops=scale.n_ops,
            request_size=1024,
            footprint=scale.footprint,
            base_config=experiment_base_config(scale, write_queue_entries=entries),
            seed=1,
        )
        for (workload, entries) in cells
        for scheme in (Scheme.WT_BASE, Scheme.SUPERMEM)
    ]
    return cells, point_specs


def points(cells, results) -> List[Fig16Point]:
    results = iter(results)
    out: List[Fig16Point] = []
    for workload, entries in cells:
        wt = next(results)
        sm = next(results)
        validate_result(wt, encrypted=True)
        validate_result(sm, encrypted=True)
        reduced = 0.0
        if wt.counter_writes:
            reduced = sm.coalesced_counter_writes / wt.counter_writes
        out.append(
            Fig16Point(
                workload=workload,
                wq_entries=entries,
                reduced_counter_write_fraction=reduced,
                supermem_latency_ns=sm.avg_txn_latency_ns,
            )
        )
    return out


def render(points: List[Fig16Point]) -> str:
    lengths = sorted({p.wq_entries for p in points})
    frac: Dict[str, Dict[int, float]] = {}
    lat: Dict[str, Dict[int, float]] = {}
    for p in points:
        frac.setdefault(p.workload, {})[p.wq_entries] = p.reduced_counter_write_fraction
        lat.setdefault(p.workload, {})[p.wq_entries] = p.supermem_latency_ns
    rows_a = [
        [wl] + [frac[wl][n] for n in lengths] for wl in WORKLOAD_NAMES if wl in frac
    ]
    rows_b = []
    for wl in WORKLOAD_NAMES:
        if wl not in lat:
            continue
        base = lat[wl][lengths[0]]
        rows_b.append([wl] + [lat[wl][n] / base for n in lengths])
    return "\n".join(
        [
            render_table(
                "Figure 16a: fraction of counter writes removed by SuperMem vs WQ length",
                ["workload"] + [str(n) for n in lengths],
                rows_a,
                note="Paper shape: grows with queue length, plateaus at >= 32 entries.",
            ),
            render_table(
                "Figure 16b: SuperMem txn latency vs WQ length (normalised to 8 entries)",
                ["workload"] + [str(n) for n in lengths],
                rows_b,
                note="Paper shape: a few percent improvement from 8 to 32 entries.",
            ),
        ]
    )
