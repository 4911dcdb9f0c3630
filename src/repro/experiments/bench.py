"""Wall-clock benchmark of the experiment sweep runner.

Times the standard Figure 13 sweep along the repo's perf trajectory and
writes the measurements to a JSON file (``BENCH_SWEEP.json`` by
convention). Every leg runs the one production execution path; legs
differ only in harness state. In execution order:

``full-fidelity``
    The production simulator at ``fidelity="full"``: payload-tracking
    traces and the byte-level crypto/NVM functional machinery, trace
    cache cold. CI asserts ``timing_vs_full`` >= 1.4
    (``tools/check_bench_ratio.py``).
``timing-fidelity``
    The production simulator at ``fidelity="timing"`` (the default
    mode), trace cache cold: identical simulated results, no functional
    byte work. This is the headline serial leg.
``warm``
    The timing-fidelity sweep again with the trace cache warm from the
    previous leg: every trace, op array and hierarchy outcome stream is
    cached, so the leg is the timing replay alone.
``parallel``
    Process fan-out over the production configuration.

The fig-recovery and fig-channels sweeps are not legs: CI runs each as
its own step, and ``bench/run.py`` times both. Resume is checked by
CI's resume drill, not timed here.

Every leg simulates the exact same results — the golden-digest
guarantee — so the legs differ only in wall clock. Each record follows
the schema ``{name, scale, jobs, wall_s, points, runner}`` where
``runner`` is the :meth:`~repro.experiments.runner.RunnerReport.to_dict`
accounting of that leg; the ``speedup`` block reports the headline
ratios.

Run via ``python -m repro bench-sweep``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: The fig13 request sizes exercised by the benchmark sweep.
BENCH_REQUEST_SIZES = (256, 1024, 4096)


def _timed_sweep(
    scale: str,
    request_sizes: Sequence[int],
    jobs: int,
    fidelity: str = "timing",
    clear_cache: bool = True,
) -> Tuple[float, int, Optional[Dict[str, object]]]:
    """One fig13 sweep; returns (wall s, number of points, runner accounting).

    ``clear_cache=False`` keeps the process trace cache (traces, op
    arrays, outcome streams) from the previous leg.
    """
    from repro.experiments import fig13, runner
    from repro.sim import trace_cache

    if clear_cache:
        trace_cache.clear()
    started = time.perf_counter()
    points = fig13.run(
        scale,
        request_sizes=tuple(request_sizes),
        jobs=jobs,
        fidelity=fidelity,
    )
    wall = time.perf_counter() - started
    report = runner.last_report()
    return wall, len(points), report.to_dict() if report is not None else None


def run_sweep_benchmark(
    scale: str = "smoke",
    jobs: int = 4,
    request_sizes: Sequence[int] = BENCH_REQUEST_SIZES,
    output: Optional[str] = "BENCH_SWEEP.json",
) -> Dict[str, object]:
    """Benchmark the fig13 sweep across the legs described in the module
    docstring: full/timing fidelity, warm, and parallel.

    Returns the payload written to ``output`` (pass ``None`` to skip the
    file). Simulated results are identical across the runs — only
    wall-clock differs — so this is purely a harness benchmark.
    """
    runs: List[Dict[str, object]] = []

    def record(
        name: str,
        n_jobs: int,
        fidelity: str = "timing",
        clear_cache: bool = True,
    ) -> float:
        wall, n_points, runner_accounting = _timed_sweep(
            scale,
            request_sizes,
            n_jobs,
            fidelity=fidelity,
            clear_cache=clear_cache,
        )
        runs.append(
            {
                "name": name,
                "scale": scale,
                "jobs": n_jobs,
                "wall_s": round(wall, 3),
                "points": n_points,
                "runner": runner_accounting,
            }
        )
        return wall

    full_fidelity = record("full-fidelity", 1, fidelity="full")
    timing_fidelity = record("timing-fidelity", 1)
    # The same production sweep with every trace and outcome stream
    # warm: the timing replay alone.
    record("warm", 1, clear_cache=False)
    parallel = record("parallel", jobs)

    payload: Dict[str, object] = {
        "benchmark": "fig13-sweep",
        "runs": runs,
        "speedup": {
            # Timing-only fidelity vs the full functional byte path on
            # the same production simulator. CI enforces >= 1.4
            # (tools/check_bench_ratio.py).
            "timing_vs_full": (
                round(full_fidelity / timing_fidelity, 3) if timing_fidelity else 0.0
            ),
            # Process fan-out on top of the production serial leg.
            "parallel_vs_serial": (
                round(timing_fidelity / parallel, 3) if parallel else 0.0
            ),
        },
        "host_cpus": os.cpu_count(),
    }
    if output:
        with open(output, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return payload


def format_summary(payload: Dict[str, object]) -> str:
    """Human-readable digest of a benchmark payload."""
    lines = []
    for run in payload["runs"]:  # type: ignore[index]
        line = (
            f"{run['name']:>16}: {run['wall_s']:8.3f}s "
            f"(jobs={run['jobs']}, {run['points']} points, scale={run['scale']})"
        )
        accounting = run.get("runner")
        if accounting:
            extras = []
            for key in ("resumed", "retries", "timeouts", "serial_fallbacks"):
                if accounting.get(key):
                    extras.append(f"{key}={accounting[key]}")
            if accounting.get("failures"):
                extras.append(f"failures={len(accounting['failures'])}")
            if extras:
                line += " [" + ", ".join(extras) + "]"
        lines.append(line)
    speedup = payload["speedup"]  # type: ignore[index]
    lines.append(
        f"{'speedup':>16}: "
        f"timing-vs-full {speedup['timing_vs_full']}x, "
        f"parallel {speedup['parallel_vs_serial']}x "
        f"({payload['host_cpus']} host CPUs)"
    )
    return "\n".join(lines)
