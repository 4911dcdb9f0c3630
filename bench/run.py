"""Benchmark the figure sweeps end to end and per layer.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace 0|1] [--out DIR]

Each workload runs in its own fresh child process (``worker.py``), one
at a time. Before it, ``SETUP_PROBES`` more fresh interpreters time the
set-up: from spawn until the imports are done and the grid is built.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from an extra traced repetition; without ``--trace``
both are reported. Every metric is printed with its unit; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--out`` receives ``results.json`` (every
metric, for ``compare.py``) and one Chrome trace per traced workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import grids
import hostspeed

WORKER = grids.BENCH_DIR / "worker.py"
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 7
#: A child run past this many seconds is killed and the run fails.
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """A child process failed; the run produces no result."""


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        "--workloads",
        dest="workloads",
        nargs="+",
        action="extend",
        choices=sorted(grids.WORKLOADS),
        help="workloads to run (default: all, in a fixed order)",
    )
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument(
        "--seconds", type=float, default=15.0, help="timed seconds per workload"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument(
        "--out", default=str(grids.BENCH_DIR / "out"), help="results directory"
    )
    return parser.parse_args(argv)


def _probe_setup(workload: str, seed: int) -> float:
    """Reference seconds from spawning a fresh interpreter until it is ready.

    The child reports ``ready`` once its imports are done and its grid
    is built, then probes the host speed; with a probe taken here just
    before the spawn, it brackets the interval and scales it.
    """
    cmd = [sys.executable, str(WORKER), "--setup-only", "--workload", workload]
    before = hostspeed.probe()
    t0 = time.perf_counter()
    cmd += ["--seed", str(seed)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest = proc.stdout.read().split()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0 or len(rest) != 1:
        raise BenchError(f"set-up probe for {workload} exited with code {code}")
    return elapsed * hostspeed.scale((before + float(rest[0])) / 2)


def _run_worker(workload: str, args, traced: bool, trace_file: Path) -> dict:
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        "1" if traced else "0",
    ]
    if traced:
        cmd += ["--trace-file", str(trace_file)]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child ran past {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _print_metrics(workload: str, metrics: Dict[str, dict]) -> None:
    for name, metric in metrics.items():
        extra = " ".join(
            f"{key}={value:.6g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in metric.items()
            if key not in ("value", "unit")
        )
        value = f"{metric['value']:>14.6g} {metric['unit']:<9}"
        print(f"{workload:<12} {name:<34} {value} {extra}")


def main(argv=None) -> int:
    args = _parse(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    grids.use_checkout_src()
    import summary

    workloads: List[str] = args.workloads or list(grids.WORKLOADS)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    want_e2e = args.trace != 1
    traced = args.trace != 0
    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "workloads": {},
    }
    line_metrics: Dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    try:
        for workload in workloads:
            setup = (
                [_probe_setup(workload, args.seed) for _ in range(SETUP_PROBES)]
                if want_e2e
                else []
            )
            run = _run_worker(
                workload, args, traced, out_dir / f"trace-{workload}.json"
            )
            metrics: Dict[str, dict] = {}
            shown: List[tuple] = []
            if want_e2e:
                metrics.update(summary.end_to_end(run, setup))
                shown += summary.END_TO_END
            problems = list(run["failure_notes"])
            if traced:
                metrics.update(summary.per_layer(run))
                shown += summary.PER_LAYER
                trace = run["trace"]
                problems += [f"target not found: {t}" for t in trace["missing_targets"]]
                problems += [
                    f"layer recorded no spans: {layer}"
                    for layer in trace["silent_layers"]
                ]
            ok = run["failed"] == 0 and not (traced and run["trace"]["silent_layers"])
            print(
                f"== {workload}: seed {args.seed}, {len(run['rep_s'])} timed reps of "
                f"{run['points_per_rep']} points, "
                f"{run['failed']}/{run['attempted']} points failed =="
            )
            _print_metrics(workload, metrics)
            for problem in problems:
                print(f"{workload:<12} ! {problem}")
            report["workloads"][workload] = {
                "correct": ok,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "failed_frac": run["failed"] / run["attempted"],
                "problems": problems,
                "metrics": metrics,
            }
            prefix = "" if len(workloads) == 1 else f"{workload}."
            for name, unit, _ in shown:
                line_metrics[prefix + name] = {
                    "value": metrics[name]["value"],
                    "unit": unit,
                }
            attempted += run["attempted"]
            failed += run["failed"]
            correct = correct and ok
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    (out_dir / "results.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": line_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
