"""Ablation bench: split vs monolithic counter organisation.

Split counters pack one page's 64 line-counters into one memory line
(Figure 9); monolithic 64-bit counters pack only 8. CWC's reach shrinks
8x under the monolithic layout, so SuperMem must coalesce more (and issue
fewer NVM writes) with split counters.
"""

from repro.experiments import ablations
from tests.experiments.grids import run_view


def _study(name):
    return lambda cell: cell[0] == name


def test_counter_organization(run_once, benchmark):
    rows = run_once(
        run_view, ablations.points, ablations.specs("smoke"), _study("counter-org")
    )
    by_label = {r.label: r for r in rows}
    assert by_label["split"].surviving_writes <= by_label["monolithic"].surviving_writes
    benchmark.extra_info["rows"] = {
        r.label: {"latency_ns": round(r.avg_latency_ns), "writes": r.surviving_writes}
        for r in rows
    }


def test_drain_policy(run_once, benchmark):
    """The deferred-counter drain must coalesce more than eager FR-FCFS."""
    rows = run_once(
        run_view, ablations.points, ablations.specs("smoke"), _study("drain-policy")
    )
    by_label = {r.label: r for r in rows}
    assert by_label["defer-counters"].coalesced >= by_label["frfcfs"].coalesced
    benchmark.extra_info["rows"] = {
        r.label: {"latency_ns": round(r.avg_latency_ns), "coalesced": r.coalesced}
        for r in rows
    }
