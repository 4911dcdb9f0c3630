"""Design-choice ablations beyond the paper's figures.

These quantify the decisions DESIGN.md calls out:

* **CWC removal policy** — the paper argues removing the older counter
  entry and appending the new one at the tail coalesces more than merging
  in place (Section 3.4.3). :func:`cwc_policy_ablation` measures both.
* **XBank offset** — the paper picks ``N/2``; :func:`xbank_offset_sweep`
  sweeps the offset 1..N-1 to show the half-ring choice (adjacent-page
  allocations never collide with their own counters).
* **Drain policy** — the deferred-counter FR-FCFS drain vs eager FR-FCFS
  vs strict FIFO (:func:`drain_policy_ablation`): eager drains gut CWC's
  coalescing window; FIFO destroys bank parallelism.
* **Counter organisation** — split counters (64 lines per counter line)
  vs monolithic 64-bit per-line counters (8 per line):
  :func:`counter_organization_ablation` shows the split layout is what
  gives CWC its reach.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List

from repro.core.schemes import Scheme
from repro.experiments.common import Scale, experiment_base_config, get_scale
from repro.experiments.report import render_table
from repro.experiments.runner import PointSpec, run_points


@dataclass
class AblationRow:
    label: str
    avg_latency_ns: float
    surviving_writes: int
    coalesced: int


def _spec(base, workload="array", scheme=Scheme.SUPERMEM, scale=None, **kw):
    return PointSpec(
        workload=workload,
        scheme=scheme,
        n_ops=scale.n_ops,
        request_size=kw.pop("request_size", 1024),
        footprint=scale.footprint,
        base_config=base,
        seed=1,
        **kw,
    )


def cwc_policy_ablation(
    scale: str | Scale = "default",
    workload: str = "array",
    jobs: int = 1,
    journal: str | None = None,
) -> List[AblationRow]:
    """Remove-older-and-append-at-tail vs merge-in-place."""
    scale = get_scale(scale) if isinstance(scale, str) else scale
    policies = ("remove-older", "merge-in-place")
    specs = [
        _spec(
            dataclasses.replace(experiment_base_config(scale), cwc_policy=policy),
            workload=workload,
            scale=scale,
        )
        for policy in policies
    ]
    results = run_points(specs, jobs=jobs, label="ablation:cwc-policy", journal=journal)
    return [
        AblationRow(policy, r.avg_txn_latency_ns, r.surviving_writes, r.coalesced_counter_writes)
        for policy, r in zip(policies, results)
    ]


def xbank_offset_sweep(
    scale: str | Scale = "default",
    workload: str = "array",
    jobs: int = 1,
    journal: str | None = None,
) -> List[AblationRow]:
    """Counter-bank offset 1..N-1 (the paper picks N/2 = 4)."""
    scale = get_scale(scale) if isinstance(scale, str) else scale
    offsets = range(1, 8)
    specs = [
        _spec(
            dataclasses.replace(experiment_base_config(scale), xbank_offset=offset),
            workload=workload,
            scheme=Scheme.WT_XBANK,
            scale=scale,
        )
        for offset in offsets
    ]
    results = run_points(specs, jobs=jobs, label="ablation:xbank-offset", journal=journal)
    return [
        AblationRow(f"offset={offset}", r.avg_txn_latency_ns, r.surviving_writes, 0)
        for offset, r in zip(offsets, results)
    ]


def drain_policy_ablation(
    scale: str | Scale = "default",
    workload: str = "array",
    jobs: int = 1,
    journal: str | None = None,
) -> List[AblationRow]:
    """Deferred-counter FR-FCFS (default) vs eager FR-FCFS vs FIFO."""
    scale = get_scale(scale) if isinstance(scale, str) else scale
    policies = ("defer-counters", "frfcfs", "fifo")
    specs = []
    for policy in policies:
        base = experiment_base_config(scale)
        base = dataclasses.replace(
            base, memory=dataclasses.replace(base.memory, drain_policy=policy)
        )
        specs.append(_spec(base, workload=workload, scale=scale))
    results = run_points(specs, jobs=jobs, label="ablation:drain-policy", journal=journal)
    return [
        AblationRow(policy, r.avg_txn_latency_ns, r.surviving_writes, r.coalesced_counter_writes)
        for policy, r in zip(policies, results)
    ]


def counter_organization_ablation(
    scale: str | Scale = "default",
    workload: str = "array",
    jobs: int = 1,
    journal: str | None = None,
) -> List[AblationRow]:
    """Split counters (paper) vs monolithic per-line 64-bit counters."""
    scale = get_scale(scale) if isinstance(scale, str) else scale
    organizations = ("split", "monolithic")
    specs = [
        _spec(
            experiment_base_config(scale),
            workload=workload,
            scale=scale,
            counter_organization=organization,
        )
        for organization in organizations
    ]
    results = run_points(specs, jobs=jobs, label="ablation:counter-org", journal=journal)
    return [
        AblationRow(
            organization, r.avg_txn_latency_ns, r.surviving_writes, r.coalesced_counter_writes
        )
        for organization, r in zip(organizations, results)
    ]


def render_all(
    scale: str | Scale = "default", jobs: int = 1, journal: str | None = None
) -> str:
    """Run and render every ablation."""
    headers = ["variant", "avg txn latency (ns)", "NVM writes", "coalesced"]
    sections = []
    for title, rows in (
        ("Ablation: CWC removal policy (SuperMem, array, 1KB)", cwc_policy_ablation(scale, jobs=jobs, journal=journal)),
        ("Ablation: XBank offset sweep (WT+XBank, array, 1KB)", xbank_offset_sweep(scale, jobs=jobs, journal=journal)),
        ("Ablation: write-drain policy (SuperMem, array, 1KB)", drain_policy_ablation(scale, jobs=jobs, journal=journal)),
        ("Ablation: counter organisation (SuperMem, array, 1KB)", counter_organization_ablation(scale, jobs=jobs, journal=journal)),
    ):
        sections.append(
            render_table(
                title,
                headers,
                [[r.label, r.avg_latency_ns, r.surviving_writes, r.coalesced] for r in rows],
            )
        )
    return "\n".join(sections)
