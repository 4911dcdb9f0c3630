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
``warm-metrics``
    ``warm`` once more with a real in-memory
    :class:`~repro.obs.metrics.MetricsRegistry` installed as the runner
    default — pure instrumentation overhead. CI caps the
    ``metrics_overhead`` ratio at 1.05 (metrics cost under 5%).
``shared-record``
    A *cold* fleet member against an (empty) on-disk outcome store
    (:mod:`repro.sim.outcome_store`): process cache cleared, one
    SuperMem point per fig13 cell — the recording owner's share of a
    fleet sweep. Generates every trace, records every hierarchy walk,
    and writes both to the store. The single-scheme subset isolates the
    per-(trace, geometry) work the store deduplicates; in the full
    seven-scheme sweep that work is only 1/7 of the points and the
    ratio would drown in scheme-replay time both members pay alike.
``shared-outcomes``
    The same single-scheme subset, process cache cleared again, store
    warm: a *second* fleet member. Zero trace generations and zero
    outcome recordings — every trace and recording loads from the
    store's binary entries, bit-identically. CI asserts
    ``shared_vs_record`` >= 1.15 (``tools/check_bench_ratio.py``).
``parallel`` / ``resume``
    Process fan-out over the production configuration, then a pure
    journal-resume pass (nothing simulated).

Every full-sweep leg simulates the exact same results — the
golden-digest guarantee — so those legs differ only in wall clock; the
two ``shared-*`` legs run the same single-scheme subset of that grid
(cold store vs warm store, results bit-identical to each other). Each record follows
the schema ``{name, scale, jobs, wall_s, points, runner}`` where
``runner`` is the :meth:`~repro.experiments.runner.RunnerReport.to_dict`
accounting of that leg; the ``speedup`` block reports the headline
ratios.

Run via ``python -m repro bench-sweep`` or
``python benchmarks/bench_wallclock.py``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: The fig13 request sizes exercised by the benchmark sweep.
BENCH_REQUEST_SIZES = (256, 1024, 4096)


def _timed_sweep(
    scale: str,
    request_sizes: Sequence[int],
    jobs: int,
    journal: Optional[str] = None,
    fidelity: str = "timing",
    clear_cache: bool = True,
    metrics: bool = False,
) -> Tuple[float, int, Optional[Dict[str, object]]]:
    """One fig13 sweep; returns (wall s, number of points, runner accounting).

    ``clear_cache=False`` keeps the process trace cache (traces, op
    arrays, outcome streams) from the previous leg. ``metrics=True``
    installs a real in-memory :class:`~repro.obs.metrics.MetricsRegistry`
    as the runner default for the duration of the sweep — the ``warm-metrics`` leg, measuring pure instrumentation
    overhead against ``warm``.
    """
    from repro.experiments import fig13, runner
    from repro.obs.metrics import NULL_METRICS, MetricsRegistry
    from repro.sim import trace_cache

    if clear_cache:
        trace_cache.clear()
    if metrics:
        runner.set_default_metrics(MetricsRegistry())
    try:
        started = time.perf_counter()
        points = fig13.run(
            scale,
            request_sizes=tuple(request_sizes),
            jobs=jobs,
            journal=journal,
            fidelity=fidelity,
        )
        wall = time.perf_counter() - started
    finally:
        if metrics:
            runner.set_default_metrics(NULL_METRICS)
    report = runner.last_report()
    return wall, len(points), report.to_dict() if report is not None else None


def _store_config(scale: str, store_dir: str):
    """The production config with the on-disk outcome store configured
    (the ``shared-record``/``shared-outcomes`` legs)."""
    from repro.experiments.common import experiment_base_config, get_scale

    return dataclasses.replace(
        experiment_base_config(get_scale(scale)), outcome_store=store_dir
    )


def _timed_store_leg(
    name: str,
    scale: str,
    request_sizes: Sequence[int],
    store_cfg,
) -> Tuple[float, int, Optional[Dict[str, object]]]:
    """One outcome-store leg: the SuperMem point of every fig13 cell.

    Clears the process trace cache first, so the leg pays (cold store)
    or loads (warm store) every trace and recording — exactly the work
    a fresh fleet member does for the cells it records on behalf of the
    fleet. ``store_cfg`` carries ``outcome_store``; the store's state
    (empty vs populated) is what distinguishes the two legs.
    """
    from repro.core.schemes import Scheme
    from repro.experiments import fig13, runner
    from repro.sim import trace_cache

    trace_cache.configure(True)
    trace_cache.clear()
    _, point_specs = fig13.specs(
        scale, request_sizes=tuple(request_sizes), base_config=store_cfg
    )
    subset = [spec for spec in point_specs if spec.scheme is Scheme.SUPERMEM]
    started = time.perf_counter()
    results = runner.run_points(subset, jobs=1, label=name)
    wall = time.perf_counter() - started
    report = runner.last_report()
    return wall, len(results), report.to_dict() if report is not None else None


def _timed_recovery_sweep(scale: str, jobs: int, runs: List[Dict[str, object]]) -> float:
    """Time the fig-recovery sweep and append its record to ``runs``.

    Not part of the speedup ratios (the recovery kernel is a different
    workload from the fig13 timing simulation); recorded so the perf
    trajectory covers the recovery-cost subsystem too.
    """
    from repro.experiments import fig_recovery, runner

    started = time.perf_counter()
    points = fig_recovery.run(scale, jobs=jobs)
    wall = time.perf_counter() - started
    report = runner.last_report()
    runs.append(
        {
            "name": "fig-recovery",
            "scale": scale,
            "jobs": jobs,
            "wall_s": round(wall, 3),
            "points": len(points),
            "runner": report.to_dict() if report is not None else None,
        }
    )
    return wall


def _timed_channels_sweep(scale: str, jobs: int, runs: List[Dict[str, object]]) -> float:
    """Time the fig-channels sweep and append its record to ``runs``.

    Like the fig-recovery leg, not part of the speedup ratios — recorded
    so the perf trajectory covers the channel-sensitivity sweep (and with
    it the SuperMem+BMT integrity-tree write path) too.
    """
    from repro.experiments import fig_channels, runner

    started = time.perf_counter()
    points = fig_channels.run(scale, jobs=jobs)
    wall = time.perf_counter() - started
    report = runner.last_report()
    runs.append(
        {
            "name": "fig-channels",
            "scale": scale,
            "jobs": jobs,
            "wall_s": round(wall, 3),
            "points": len(points),
            "runner": report.to_dict() if report is not None else None,
        }
    )
    return wall


def run_sweep_benchmark(
    scale: str = "smoke",
    jobs: int = 4,
    request_sizes: Sequence[int] = BENCH_REQUEST_SIZES,
    output: Optional[str] = "BENCH_SWEEP.json",
    outcome_store: Optional[str] = None,
) -> Dict[str, object]:
    """Benchmark the fig13 sweep across the legs described in the module
    docstring: full/timing fidelity, warm with and without metrics, the
    outcome store cold and warm, parallel, and journal resume.

    Returns the payload written to ``output`` (pass ``None`` to skip the
    file). Simulated results are identical across the runs — only
    wall-clock differs — so this is purely a harness benchmark. The
    ``resume`` leg replays the journal the parallel leg wrote: zero
    simulation, pure journal-read cost, and its ``runner.resumed`` count
    equals the full point count (the accounting CI asserts on).
    """
    runs: List[Dict[str, object]] = []

    def record(
        name: str,
        n_jobs: int,
        journal: Optional[str] = None,
        fidelity: str = "timing",
        clear_cache: bool = True,
        metrics: bool = False,
    ) -> float:
        wall, n_points, runner_accounting = _timed_sweep(
            scale,
            request_sizes,
            n_jobs,
            journal=journal,
            fidelity=fidelity,
            clear_cache=clear_cache,
            metrics=metrics,
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

    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as tmp:
        journal = os.path.join(tmp, "sweep-journal.jsonl")
        full_fidelity = record("full-fidelity", 1, fidelity="full")
        timing_fidelity = record("timing-fidelity", 1)
        # The same production sweep with every trace and outcome stream
        # warm, bare and then with a live in-memory metrics registry: the
        # instrumentation overhead CI caps at 5% (check_bench_ratio.py).
        warm = record("warm", 1, clear_cache=False)
        warm_metrics = record("warm-metrics", 1, clear_cache=False, metrics=True)
        # The cross-process outcome store, on the single-scheme subset
        # (one SuperMem point per cell — the recording owner's share of
        # a fleet sweep): a cold member generates, records, and writes
        # the store...
        store_dir = outcome_store or os.path.join(tmp, "outcome-store")
        store_cfg = _store_config(scale, store_dir)
        shared_record, store_points, store_acct = _timed_store_leg(
            "shared-record", scale, request_sizes, store_cfg
        )
        runs.append(
            {
                "name": "shared-record",
                "scale": scale,
                "jobs": 1,
                "wall_s": round(shared_record, 3),
                "points": store_points,
                "runner": store_acct,
            }
        )
        # ...then a warm second member: process cache cleared again, so
        # every trace and recording must come from the store — zero
        # generations, zero walks, bit-identical results.
        shared_outcomes, store_points, store_acct = _timed_store_leg(
            "shared-outcomes", scale, request_sizes, store_cfg
        )
        runs.append(
            {
                "name": "shared-outcomes",
                "scale": scale,
                "jobs": 1,
                "wall_s": round(shared_outcomes, 3),
                "points": store_points,
                "runner": store_acct,
            }
        )
        parallel = record("parallel", jobs, journal=journal)
        resume = record("resume", jobs, journal=journal)
        _timed_recovery_sweep(scale, jobs, runs)
        _timed_channels_sweep(scale, jobs, runs)

    payload: Dict[str, object] = {
        "benchmark": "fig13-sweep",
        "runs": runs,
        "speedup": {
            # Instrumented warm sweep vs the bare warm sweep (>1 =
            # overhead). CI enforces <= 1.05 (tools/check_bench_ratio.py
            # CEILINGS).
            "metrics_overhead": round(warm_metrics / warm, 3) if warm else 0.0,
            # A warm fleet member (store hits only) vs a cold one
            # (generate + record + store writes). CI enforces >= 1.15
            # (tools/check_bench_ratio.py).
            "shared_vs_record": (
                round(shared_record / shared_outcomes, 3) if shared_outcomes else 0.0
            ),
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
            # Journal resume vs re-simulating (the crash-recovery payoff).
            "resume_vs_parallel": round(parallel / resume, 3) if resume else 0.0,
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
        f"shared-store {speedup['shared_vs_record']}x, "
        f"metrics-overhead {speedup['metrics_overhead']}x, "
        f"parallel {speedup['parallel_vs_serial']}x, "
        f"resume {speedup['resume_vs_parallel']}x "
        f"({payload['host_cpus']} host CPUs)"
    )
    return "\n".join(lines)
