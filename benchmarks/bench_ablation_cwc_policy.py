"""Ablation bench: CWC removal policy (Section 3.4.3's design argument).

The paper removes the *older* coalesced counter entry and appends the new
one at the tail, arguing the delay merges more writes than updating the
older entry in place. The check: remove-older must coalesce at least as
many counter writes as merge-in-place.
"""

from repro.experiments import ablations
from tests.experiments.grids import run_view


def test_cwc_policy(run_once, benchmark):
    rows = run_once(
        run_view,
        ablations.points,
        ablations.specs("smoke"),
        lambda cell: cell[0] == "cwc-policy",
    )
    by_label = {r.label: r for r in rows}
    remove = by_label["remove-older"]
    merge = by_label["merge-in-place"]
    assert remove.coalesced >= merge.coalesced
    assert remove.surviving_writes <= merge.surviving_writes * 1.05
    benchmark.extra_info["rows"] = {
        r.label: {"latency_ns": round(r.avg_latency_ns), "writes": r.surviving_writes,
                  "coalesced": r.coalesced}
        for r in rows
    }
