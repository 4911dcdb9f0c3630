"""Experiments regenerating every table and figure of the paper.

Each module produces the paper artifact named in DESIGN.md's experiment
index:

* :mod:`repro.experiments.table1` — Table 1 (recoverability per
  transaction stage, via real crash injection and log recovery);
* :mod:`repro.experiments.fig13` — Figure 13 (single-core transaction
  latency across workloads, schemes, and request sizes);
* :mod:`repro.experiments.fig14` — Figure 14 (multi-programmed latency);
* :mod:`repro.experiments.fig15` — Figure 15 (NVM write requests
  normalised to Unsec), a second view of Figure 13's grid;
* :mod:`repro.experiments.fig16` — Figure 16 (write-queue size
  sensitivity);
* :mod:`repro.experiments.fig17` — Figure 17 (counter-cache size
  sensitivity);
* :mod:`repro.experiments.fig_channels` — channel-count sensitivity
  beyond the paper (SuperMem vs SuperMem+BMT);
* :mod:`repro.experiments.fig_recovery` — the Section 6 recovery-cost
  sweep (recovery time vs capacity, log size, RSR and dirty fraction);
* :mod:`repro.experiments.ablations` — design-choice ablations beyond the
  paper (CWC policy, XBank offset, drain policy, counter organisation);
* :mod:`repro.experiments.related_work` — Section 6 related work (SCA
  and Osiris runtime cost, Osiris recovery cost).

Each module declares a grid, ``specs(scale)``, and a view,
``points(cells, results)``; :mod:`repro.experiments.suite` runs the
grids and hands each view its results. A
:class:`~repro.experiments.common.Scale` names the run size, so the same
code serves quick benchmarks and full regenerations.
"""

from repro.experiments.common import Scale, SCALES, experiment_base_config
from repro.experiments.report import render_table

__all__ = ["Scale", "SCALES", "experiment_base_config", "render_table"]
