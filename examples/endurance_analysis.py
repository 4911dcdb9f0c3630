#!/usr/bin/env python3
"""NVM endurance analysis: where the write wear actually lands.

PCM cells endure ~1e7-1e9 writes (paper Section 3.4.1), so *where* a
scheme puts its writes matters as much as how many it issues. This example
runs the same workload under WT, SuperMem, and Osiris and inspects the
functional NVM's per-line wear counters:

* the WT baseline doubles total writes, and its counter *lines* become the
  hottest cells in the device (every data write to a page rewrites the
  same counter line);
* SuperMem's CWC collapses most counter-line writes, pulling the hottest
  line's wear down toward the data lines';
* the split-counter design concentrates a page's counter wear on one line
  — visible as the counter-region peak in every encrypted scheme.

Run::

    python examples/endurance_analysis.py
"""

import dataclasses

from repro import MemoryConfig, Scheme, SimConfig, scheme_config
from repro.core.system import SecureMemorySystem

N_WRITES = 600
PAYLOAD = bytes([0x5A]) * 64


def run_wear(scheme: Scheme):
    cfg = dataclasses.replace(
        scheme_config(scheme, SimConfig(memory=MemoryConfig(capacity=8 << 20))),
        fidelity="timing",  # wear accounting only; no payload churn
    )
    system = SecureMemorySystem(cfg)
    # A hot loop over 3 pages: sequential lines, wrap-around.
    for i in range(N_WRITES):
        line = (i * 7) % 192  # 3 pages of lines, strided
        system.persist_line(float(i), line)
    system.drain()
    nvm = system.controller.nvm
    amap = system.amap
    data_wear = max(
        (nvm.wear_of(line) for line in range(192)), default=0
    )
    ctr_wear = max(
        (nvm.wear_of(amap.n_lines + page) for page in range(4)), default=0
    )
    return nvm.total_writes, data_wear, ctr_wear


def main() -> None:
    print(f"{N_WRITES} strided line writes over 3 pages\n")
    print(f"{'scheme':>10} | {'total writes':>12} | {'hottest data line':>17} | {'hottest counter line':>20}")
    print("-" * 70)
    for scheme in (Scheme.UNSEC, Scheme.WT_BASE, Scheme.OSIRIS, Scheme.SUPERMEM):
        total, data_wear, ctr_wear = run_wear(scheme)
        print(f"{scheme.label:>10} | {total:>12} | {data_wear:>17} | {ctr_wear:>20}")
    print(
        "\nThe WT baseline's counter lines absorb ~64x the wear of any data\n"
        "line (every write in a page hits the same counter line); CWC cuts\n"
        "that concentration, which is an endurance win on top of the\n"
        "performance win the paper reports."
    )


if __name__ == "__main__":
    main()
