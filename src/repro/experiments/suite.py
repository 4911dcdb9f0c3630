"""The experiment table behind ``python -m repro run``.

Every experiment is a grid, a view and a renderer. ``specs(scale)``
returns ``(cells, point_specs)``; ``points(cells, results)`` turns the
results of those specs into the experiment's rows and validates them;
``render(rows)`` formats the rows as markdown. Figure 15 has no grid of
its own: it is a second view of Figure 13's.

:func:`run` simulates the union of the requested grids in one
:func:`~repro.experiments.runner.run_points` call. Experiments share
points (Figure 15 all of Figure 13's; Figure 16, the channel sweep, the
ablations and the related-work table some), and a shared point is the
same spec, so each distinct point runs once per invocation.

The benchmark imports :mod:`repro.experiments` while it times its
set-up, so this table lives here, not in the package ``__init__``.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, NamedTuple, Optional

from repro.experiments import (
    ablations,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    fig_channels,
    fig_recovery,
    related_work,
    table1,
)
from repro.experiments.runner import PointSpec, run_points


class Experiment(NamedTuple):
    description: str
    #: ``scale name -> (cells, point_specs)``.
    specs: Callable
    #: ``(cells, results) -> rows``, one result per spec.
    points: Callable
    #: ``rows -> markdown``.
    render: Callable


#: ``python -m repro run`` names, in ``run all`` order.
EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(
        "Crash recoverability per transaction stage (crash injection)",
        table1.specs, table1.points, table1.render,
    ),
    "fig13": Experiment(
        "Single-core txn latency: 5 workloads x 7 schemes x 3 sizes",
        fig13.specs, fig13.points, fig13.render,
    ),
    "fig14": Experiment(
        "Multi-programmed txn latency: 1/4/8 programs",
        fig14.specs, fig14.points, fig14.render,
    ),
    "fig15": Experiment(
        "NVM write requests normalised to Unsec",
        fig13.specs, fig15.points, fig15.render,
    ),
    "fig16": Experiment(
        "Write-queue length sensitivity (8..128 entries)",
        fig16.specs, fig16.points, fig16.render,
    ),
    "fig17": Experiment(
        "Counter-cache size sensitivity (1KB..4MB)",
        fig17.specs, fig17.points, fig17.render,
    ),
    "fig-channels": Experiment(
        "Channel-count sensitivity (1..8 channels at fixed banks)",
        fig_channels.specs, fig_channels.points, fig_channels.render,
    ),
    "fig-recovery": Experiment(
        "Section 6 recovery cost vs capacity/log/RSR/dirty fraction",
        fig_recovery.specs, fig_recovery.points, fig_recovery.render,
    ),
    "ablations": Experiment(
        "Design-choice ablations (CWC policy, XBank offset, ...)",
        ablations.specs, ablations.points, ablations.render,
    ),
    "related": Experiment(
        "Section 6 related work: SCA / Osiris runtime + recovery cost",
        related_work.specs, related_work.points, related_work.render,
    ),
}


def run(
    experiment: str,
    scale: str,
    jobs: int = 1,
    journal: Optional[str] = None,
) -> Dict[str, list]:
    """Run ``experiment`` (a name, or ``all``); return its rows by name.

    Every distinct spec of the requested grids runs once, in one
    :func:`run_points` call labelled ``experiment``; each view then gets
    the results of its own specs, in its own order. ``jobs`` and
    ``journal`` are the runner's (see docs/CLI.md).
    """
    names = list(EXPERIMENTS) if experiment == "all" else [experiment]
    grids = {name: EXPERIMENTS[name].specs(scale) for name in names}
    index: Dict[PointSpec, int] = {}
    for _, point_specs in grids.values():
        for spec in point_specs:
            index.setdefault(spec, len(index))
    requested = sum(len(point_specs) for _, point_specs in grids.values())
    print(
        f"[repro] {experiment}: simulating {len(index)} distinct points "
        f"of {requested}",
        file=sys.stderr,
    )
    results = run_points(list(index), jobs=jobs, label=experiment, journal=journal)
    return {
        name: EXPERIMENTS[name].points(
            cells, [results[index[spec]] for spec in point_specs]
        )
        for name, (cells, point_specs) in grids.items()
    }
