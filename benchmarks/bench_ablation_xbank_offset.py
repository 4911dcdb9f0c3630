"""Ablation bench: XBank offset sweep (Section 3.3's N/2 argument).

The paper stores the counter of bank X in bank (X + N/2): the largest
possible offset keeps an application's contiguous (adjacent-bank) pages
from colliding with their own counter writes. The check: the paper's
offset (4 of 8) performs at least as well as the worst small offset.
"""

from repro.experiments import ablations
from tests.experiments.grids import run_view


def test_xbank_offset(run_once, benchmark):
    rows = run_once(
        run_view,
        ablations.points,
        ablations.specs("smoke"),
        lambda cell: cell[0] == "xbank-offset",
    )
    latency = {r.label: r.avg_latency_ns for r in rows}
    half_ring = latency["offset=4"]
    worst = max(latency.values())
    assert half_ring <= worst * 1.001
    benchmark.extra_info["latency_by_offset"] = {
        label: round(v) for label, v in latency.items()
    }
