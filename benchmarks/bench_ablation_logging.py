"""Ablation bench: undo vs redo logging under SuperMem.

Both durable-transaction protocols run on the same secure memory system.
Redo skips the prepare-stage old-data reads (it logs the new data it
already holds) at the cost of one extra header flush (the commit record);
on a write-bound encrypted NVM the two end up with nearly identical
traffic, confirming the paper's choice to analyse undo logging without
loss of generality (Table 1).
"""

import dataclasses

from repro.common.config import MemoryConfig, SimConfig
from repro.core.schemes import Scheme, scheme_config
from repro.sim.simulator import Simulator
from repro.txn.log import LogRegion
from repro.txn.persist import TraceDomain
from repro.txn.transaction import TransactionManager

N_TXNS = 60
DATA_BASE = 64 * 4096


def run_mode(mode: str):
    domain = TraceDomain()
    manager = TransactionManager(
        domain, LogRegion(0, 16 * 4096), logging_mode=mode
    )
    for i in range(N_TXNS):
        addr = DATA_BASE + (i % 16) * 1024
        manager.run([(addr, 1024, None)])
    ops = domain.take_ops()

    cfg = dataclasses.replace(
        scheme_config(Scheme.SUPERMEM, SimConfig(memory=MemoryConfig(capacity=8 << 20))),
        fidelity="timing",
    )
    result = Simulator(cfg).run(ops)
    avg_latency = sum(result.txn_latencies) / len(result.txn_latencies)
    stats = result.stats
    writes = stats.get("wq", "appends") - stats.get("wq", "cwc_coalesced")
    return avg_latency, int(writes)


def test_undo_vs_redo(run_once, benchmark):
    def run_both():
        return {mode: run_mode(mode) for mode in ("undo", "redo")}

    results = run_once(run_both)
    undo_latency, undo_writes = results["undo"]
    redo_latency, redo_writes = results["redo"]
    # The protocols must be within ~20 % of each other on both axes.
    assert 0.8 < redo_latency / undo_latency < 1.25
    assert 0.8 < redo_writes / undo_writes < 1.25
    benchmark.extra_info["results"] = {
        mode: {"latency_ns": round(lat), "writes": writes}
        for mode, (lat, writes) in results.items()
    }
