"""Design-choice ablations beyond the paper's figures.

These quantify the decisions DESIGN.md calls out, each as one study of
the grid :func:`specs` builds (SuperMem on array with 1 KB transactions
unless noted):

* **CWC removal policy** (``cwc-policy``) — the paper argues removing
  the older counter entry and appending the new one at the tail
  coalesces more than merging in place (Section 3.4.3).
* **XBank offset** (``xbank-offset``, WT+XBank) — the paper picks
  ``N/2``; the study sweeps the offset 1..N-1 to show the half-ring
  choice (adjacent-page allocations never collide with their own
  counters).
* **Drain policy** (``drain-policy``) — the deferred-counter FR-FCFS
  drain vs eager FR-FCFS vs strict FIFO: eager drains gut CWC's
  coalescing window; FIFO destroys bank parallelism.
* **Counter organisation** (``counter-org``) — split counters (64 lines
  per counter line) vs monolithic 64-bit per-line counters (8 per
  line): the split layout is what gives CWC its reach.

The default variant of three studies is one and the same spec, which
the CLI simulates once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List

from repro.core.schemes import Scheme
from repro.experiments.common import experiment_base_config, get_scale
from repro.experiments.report import render_table
from repro.experiments.runner import PointSpec

#: Study name -> table title, in render order.
STUDIES = {
    "cwc-policy": "Ablation: CWC removal policy (SuperMem, array, 1KB)",
    "xbank-offset": "Ablation: XBank offset sweep (WT+XBank, array, 1KB)",
    "drain-policy": "Ablation: write-drain policy (SuperMem, array, 1KB)",
    "counter-org": "Ablation: counter organisation (SuperMem, array, 1KB)",
}


@dataclass
class AblationRow:
    study: str
    label: str
    avg_latency_ns: float
    surviving_writes: int
    coalesced: int


def specs(scale: str) -> tuple:
    """The ``(study, variant)`` cells, one array/1 KB spec each."""
    scale = get_scale(scale)
    base = experiment_base_config(scale)
    cells = []
    point_specs = []

    def add(study, label, config=base, scheme=Scheme.SUPERMEM, **kw):
        cells.append((study, label))
        point_specs.append(
            PointSpec(
                workload="array",
                scheme=scheme,
                n_ops=scale.n_ops,
                request_size=1024,
                footprint=scale.footprint,
                base_config=config,
                seed=1,
                **kw,
            )
        )

    for policy in ("remove-older", "merge-in-place"):
        add("cwc-policy", policy, dataclasses.replace(base, cwc_policy=policy))
    for offset in range(1, 8):
        add(
            "xbank-offset",
            f"offset={offset}",
            dataclasses.replace(base, xbank_offset=offset),
            scheme=Scheme.WT_XBANK,
        )
    for policy in ("defer-counters", "frfcfs", "fifo"):
        memory = dataclasses.replace(base.memory, drain_policy=policy)
        add("drain-policy", policy, dataclasses.replace(base, memory=memory))
    for organization in ("split", "monolithic"):
        add("counter-org", organization, counter_organization=organization)
    return cells, point_specs


def points(cells, results) -> List[AblationRow]:
    return [
        AblationRow(
            study,
            label,
            result.avg_txn_latency_ns,
            result.surviving_writes,
            result.coalesced_counter_writes,
        )
        for (study, label), result in zip(cells, results)
    ]


def render(rows: List[AblationRow]) -> str:
    headers = ["variant", "avg txn latency (ns)", "NVM writes", "coalesced"]
    return "\n".join(
        render_table(
            title,
            headers,
            [
                [r.label, r.avg_latency_ns, r.surviving_writes, r.coalesced]
                for r in rows
                if r.study == study
            ],
        )
        for study, title in STUDIES.items()
    )
