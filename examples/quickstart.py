#!/usr/bin/env python3
"""Quickstart: simulate the paper's schemes and read the headline result.

Runs the B-tree workload (1 KB transactions) under all seven evaluated
schemes on the scaled Table 2 system and prints the normalised transaction
latencies and NVM write counts — a one-screen version of Figures 13 and 15.

Run::

    python examples/quickstart.py
"""

from repro import EVALUATED_SCHEMES, Scheme, simulate_workload


def main() -> None:
    workload = "btree"
    n_ops = 100
    print(f"Simulating {n_ops} x 1KB durable transactions on '{workload}'\n")
    print(f"{'scheme':>10} | {'txn latency':>12} | {'vs Unsec':>8} | {'NVM writes':>10} | {'coalesced':>9}")
    print("-" * 64)
    baseline = None
    for scheme in EVALUATED_SCHEMES:
        result = simulate_workload(
            workload, scheme, n_ops=n_ops, request_size=1024, footprint=2 << 20
        )
        if baseline is None:
            baseline = result.avg_txn_latency_ns
        print(
            f"{scheme.label:>10} | {result.avg_txn_latency_ns:>9.0f} ns"
            f" | {result.avg_txn_latency_ns / baseline:>7.2f}x"
            f" | {result.surviving_writes:>10}"
            f" | {result.coalesced_counter_writes:>9}"
        )
    print(
        "\nThe paper's headline: the write-through baseline (WT) costs ~2x, and\n"
        "SuperMem (= WT + CWC + XBank) recovers essentially all of it,\n"
        "matching the ideal battery-backed write-back scheme (WB)."
    )


if __name__ == "__main__":
    main()
