"""Related-work comparison (paper Section 6, quantified).

Two tables the paper argues qualitatively, measured here:

* **runtime traffic and latency** — SuperMem vs SCA (selective
  counter-atomicity) vs Osiris (relaxed counter persistence) vs the WT
  baseline, on one workload;
* **recovery cost** — trial decryptions needed to rebuild counters after
  a crash, as a function of how much memory was written. The paper's
  claim: Osiris's recovery "linearly increases with the memory size",
  SuperMem's is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

from repro.common.config import MemoryConfig, SimConfig
from repro.core.osiris import OsirisRecovery
from repro.core.schemes import Scheme, scheme_config
from repro.core.system import SecureMemorySystem
from repro.experiments.common import experiment_base_config, get_scale
from repro.experiments.report import render_table
from repro.experiments.runner import PointSpec

COMPARED = (Scheme.WT_BASE, Scheme.SCA, Scheme.OSIRIS, Scheme.SUPERMEM)
#: Written lines before the crash in each Osiris recovery row.
WRITTEN_LINE_COUNTS = (64, 256, 1024)


@dataclass
class RuntimeRow:
    scheme: Scheme
    avg_latency_ns: float
    nvm_writes: int
    counter_writes_surviving: int


@dataclass
class RecoveryRow:
    written_lines: int
    osiris_trials: int
    supermem_trials: int  # always 0 (strict persistence)


def specs(scale: str) -> tuple:
    """One array/1 KB spec per compared scheme (the cells)."""
    scale = get_scale(scale)
    base = experiment_base_config(scale)
    point_specs = [
        PointSpec(
            workload="array",
            scheme=scheme,
            n_ops=scale.n_ops,
            request_size=1024,
            footprint=scale.footprint,
            base_config=base,
            seed=1,
        )
        for scheme in COMPARED
    ]
    return list(COMPARED), point_specs


def points(cells, results) -> List[Union[RuntimeRow, RecoveryRow]]:
    """The runtime rows of the sweep, then the Osiris recovery rows,
    which crash and recover a functional system here rather than in the
    sweep."""
    runtime = [
        RuntimeRow(
            scheme=scheme,
            avg_latency_ns=r.avg_txn_latency_ns,
            nvm_writes=r.surviving_writes,
            counter_writes_surviving=r.counter_writes - r.coalesced_counter_writes,
        )
        for scheme, r in zip(cells, results)
    ]
    return runtime + [recovery_row(n_lines) for n_lines in WRITTEN_LINE_COUNTS]


def recovery_row(n_lines: int) -> RecoveryRow:
    """Trial decryptions Osiris needs after ``n_lines`` written lines."""
    cfg = scheme_config(
        Scheme.OSIRIS, SimConfig(memory=MemoryConfig(capacity=64 << 20))
    )
    system = SecureMemorySystem(cfg)
    for i in range(n_lines):
        system.persist_line(float(i), line=i, payload=bytes([i % 250 + 1]) * 64)
    report = OsirisRecovery(system.crash()).recover()
    return RecoveryRow(
        written_lines=n_lines,
        osiris_trials=report.trial_decryptions,
        supermem_trials=0,
    )


def render(rows: List[Union[RuntimeRow, RecoveryRow]]) -> str:
    runtime = [r for r in rows if isinstance(r, RuntimeRow)]
    recovery = [r for r in rows if isinstance(r, RecoveryRow)]
    runtime_table = render_table(
        "Related work: runtime comparison (array, 1KB transactions)",
        ["scheme", "avg txn latency (ns)", "NVM writes", "surviving counter writes"],
        [
            [r.scheme.label, r.avg_latency_ns, r.nvm_writes, r.counter_writes_surviving]
            for r in runtime
        ],
        note=(
            "SCA pairs every persistent write (no coalescing); Osiris "
            "persists every 4th counter update; SuperMem coalesces in the "
            "write queue."
        ),
    )
    recovery_table = render_table(
        "Related work: post-crash counter recovery cost",
        ["written lines", "Osiris trial decryptions", "SuperMem trial decryptions"],
        [[r.written_lines, r.osiris_trials, r.supermem_trials] for r in recovery],
        note="Paper Section 6: Osiris recovery grows with memory size; "
        "SuperMem needs none (strict counter persistence).",
    )
    return runtime_table + "\n" + recovery_table
