#!/usr/bin/env python3
"""Full scheme comparison across all five paper workloads.

A compact reproduction of Figures 13 and 15 on one screen: for each
workload, the transaction latency and NVM write count of every scheme,
normalised to the unencrypted baseline — plus the multicore (4-program)
column showing why CWC matters more than XBank when every bank is busy.

Run (takes ~1 minute)::

    python examples/scheme_comparison.py
"""

from repro import EVALUATED_SCHEMES, simulate_multiprogrammed, simulate_workload

WORKLOADS = ("array", "queue", "btree", "hashtable", "rbtree")
N_OPS = 80
REQUEST_SIZE = 1024
FOOTPRINT = 2 << 20


def single_core_table() -> None:
    print(f"single-core, {REQUEST_SIZE} B transactions "
          f"(latency / writes, normalised to Unsec)\n")
    header = f"{'workload':>10} |" + "".join(f" {s.label:>14} |" for s in EVALUATED_SCHEMES)
    print(header)
    print("-" * len(header))
    for workload in WORKLOADS:
        cells = []
        base_lat = base_wr = None
        for scheme in EVALUATED_SCHEMES:
            r = simulate_workload(
                workload, scheme, n_ops=N_OPS,
                request_size=REQUEST_SIZE, footprint=FOOTPRINT,
            )
            if base_lat is None:
                base_lat, base_wr = r.avg_txn_latency_ns, r.surviving_writes
            cells.append(
                f" {r.avg_txn_latency_ns / base_lat:>5.2f}x/{r.surviving_writes / base_wr:>5.2f}x |"
            )
        print(f"{workload:>10} |" + "".join(cells))


def multicore_table() -> None:
    print("\n4 programs sharing all banks (hashtable, latency vs Unsec)\n")
    for scheme in EVALUATED_SCHEMES:
        r = simulate_multiprogrammed(
            "hashtable", scheme, n_programs=4, n_ops=30, request_size=REQUEST_SIZE
        )
        if scheme is EVALUATED_SCHEMES[0]:
            base = r.avg_txn_latency_ns
        print(f"  {scheme.label:>10}: {r.avg_txn_latency_ns / base:5.2f}x")


def main() -> None:
    single_core_table()
    multicore_table()
    print(
        "\nReading the table: WT doubles both columns; CWC removes the\n"
        "counter writes; XBank hides the remaining ones behind bank\n"
        "parallelism; SuperMem (both) matches the battery-backed ideal."
    )


if __name__ == "__main__":
    main()
