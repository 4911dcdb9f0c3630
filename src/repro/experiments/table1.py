"""Table 1: recoverability of a durable transaction per crash stage.

The paper's Table 1 analyses a durable transaction on an encrypted NVM
*without* counter-atomicity (counters live in a volatile write-back
counter cache): a crash in the prepare stage is recoverable, but crashes
in the mutate and commit stages are not, because the log's (or data's)
counters may not have been persisted.

This experiment runs that scenario for real: one transaction updating a
256 B object, a crash injected at the end of each stage, then log-scan
recovery over the durable image. Three systems are compared:

* **Unprotected** — encrypted NVM, write-back counter cache, no battery
  (the paper's motivating baseline);
* **SuperMem** — write-through counter cache with the atomicity register;
* **SuperMem (no register)** — the Figure 6 broken write-through variant,
  crashed inside the counter/data append gap, demonstrating why the
  register is needed.

Recoverable means: after recovery, every data line reads either the
complete old value or the complete new value.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List

from repro.common.config import (
    CounterCacheConfig,
    CounterCacheMode,
    MemoryConfig,
    SimConfig,
)
from repro.common.errors import CrashInjected
from repro.core.crash import CrashController
from repro.core.recovery import RecoveredSystem
from repro.core.schemes import Scheme, scheme_config
from repro.core.system import SecureMemorySystem
from repro.experiments.report import render_table
from repro.txn.log import LogRegion
from repro.txn.persist import DirectDomain
from repro.txn.transaction import TransactionManager, recover_data_view

STAGES = ("prepare", "mutate", "commit")
OBJECT_SIZE = 256
DATA_BASE = 4 * 4096
OLD = bytes([0xAA]) * OBJECT_SIZE
NEW = bytes([0xBB]) * OBJECT_SIZE


@dataclass
class Table1Row:
    system: str
    stage: str
    recoverable: bool
    recovered_value: str  # "old" / "new" / "garbage"


def _build(system_kind: str):
    """Build (manager, system) for one of the three compared systems."""
    mem = MemoryConfig(capacity=8 << 20)
    if system_kind == "unprotected":
        cfg = SimConfig(
            memory=mem,
            counter_cache=CounterCacheConfig(
                size=256 << 10,
                assoc=8,
                latency_cycles=8,
                mode=CounterCacheMode.WRITE_BACK,
                battery_backed=False,
            ),
        )
    elif system_kind == "supermem":
        cfg = scheme_config(Scheme.SUPERMEM, SimConfig(memory=mem))
    elif system_kind == "supermem-no-register":
        cfg = dataclasses.replace(
            scheme_config(Scheme.SUPERMEM, SimConfig(memory=mem)),
            atomicity_register=False,
        )
    else:
        raise ValueError(system_kind)
    # Table 1 inspects recovered byte images, so it always needs the
    # functional crypto path regardless of any sweep-level fidelity mode.
    cfg = dataclasses.replace(cfg, fidelity="full")
    crash = CrashController()
    system = SecureMemorySystem(cfg, crash=crash)
    domain = DirectDomain(system)
    manager = TransactionManager(domain, LogRegion(0, 64 * 64), crash=crash)
    return manager, domain, system


def _crash_one(system_kind: str, stage: str) -> Table1Row:
    manager, domain, system = _build(system_kind)
    # Seed the old value (committed state) and checkpoint its counters:
    # the transaction starts from a quiescent durable state, as in the
    # paper's Table 1 (pre-transaction data and counters are correct).
    domain.store(DATA_BASE, OBJECT_SIZE, OLD)
    domain.clwb(DATA_BASE, OBJECT_SIZE)
    domain.sfence()
    system.checkpoint_counters()

    manager.crash_ctl.arm(f"txn-after-{stage}")
    try:
        manager.run([(DATA_BASE, OBJECT_SIZE, NEW)])
        crashed = False
    except CrashInjected:
        crashed = True
    image = system.crash()

    recovered = RecoveredSystem(image)
    data_lines = list(range(DATA_BASE // 64, (DATA_BASE + OBJECT_SIZE) // 64))
    report = recover_data_view(recovered, manager.log, data_lines)
    value = b"".join(report.view[line] for line in data_lines)
    if value == OLD:
        verdict = "old"
    elif value == NEW:
        verdict = "new"
    else:
        verdict = "garbage"
    recoverable = verdict in ("old", "new") and crashed
    return Table1Row(
        system=system_kind, stage=stage, recoverable=recoverable, recovered_value=verdict
    )


def _crash_raw_overwrite(system_kind: str) -> Table1Row:
    """Figure 6's scenario: a *raw* (non-transactional) overwrite crashed
    in the counter/data append gap. No undo log protects the line, so the
    atomicity register is the only defence.
    """
    manager, domain, system = _build(system_kind)
    domain.store(DATA_BASE, OBJECT_SIZE, OLD)
    domain.clwb(DATA_BASE, OBJECT_SIZE)
    domain.sfence()
    system.checkpoint_counters()
    point = (
        "wt-no-register-gap"
        if system_kind == "supermem-no-register"
        else "after-pair-append"
    )
    system.crash_ctl.arm(point, occurrence=1)
    crashed = False
    try:
        domain.store(DATA_BASE, OBJECT_SIZE, NEW)
        domain.clwb(DATA_BASE, OBJECT_SIZE)
    except CrashInjected:
        crashed = True
    image = system.crash()
    recovered = RecoveredSystem(image)
    lines = list(range(DATA_BASE // 64, (DATA_BASE + OBJECT_SIZE) // 64))
    # Per-line consistency: every line must hold old or new content.
    old_lines = {OLD[:64]}
    new_lines = {NEW[:64]}
    per_line_ok = all(
        recovered.plaintext_of(line) in (old_lines | new_lines) for line in lines
    )
    value = b"".join(recovered.plaintext_of(line) for line in lines)
    verdict = "old" if value == OLD else "new" if value == NEW else (
        "torn-but-decryptable" if per_line_ok else "garbage"
    )
    return Table1Row(
        system=system_kind,
        stage="raw overwrite",
        recoverable=per_line_ok and crashed,
        recovered_value=verdict,
    )


def specs(scale: str) -> tuple:
    """Table 1 has no sweep grid: its crash scenarios run in :func:`points`."""
    return [], []


def points(cells, results) -> List[Table1Row]:
    """All (system, stage) crash combinations, injected and recovered here."""
    rows: List[Table1Row] = []
    for system_kind in ("unprotected", "supermem"):
        for stage in STAGES:
            rows.append(_crash_one(system_kind, stage))
    # The register's value shows on unlogged writes (Figure 6).
    rows.append(_crash_raw_overwrite("supermem"))
    rows.append(_crash_raw_overwrite("supermem-no-register"))
    return rows


def render(rows: List[Table1Row]) -> str:
    labels = {
        "unprotected": "Encrypted NVM, volatile WB counter cache (paper Table 1)",
        "supermem": "SuperMem (write-through + atomicity register)",
        "supermem-no-register": "Write-through WITHOUT the register (Fig. 6)",
    }
    table_rows = [
        [
            labels[r.system],
            r.stage,
            "Yes" if r.recoverable else "No",
            r.recovered_value,
        ]
        for r in rows
    ]
    return render_table(
        "Table 1: crash recoverability by transaction stage",
        ["system", "crash stage", "recoverable", "recovered value"],
        table_rows,
        note=(
            "Paper: unprotected = Yes/No/No across prepare/mutate/commit; "
            "SuperMem = Yes at every stage."
        ),
    )
