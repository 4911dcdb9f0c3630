"""Run one workload in a fresh interpreter; print its raw measurements.

Started by ``run.py``, once per workload, never concurrently. The child
builds the workload's grid, runs an untimed warm-up pass, then times
whole repetitions of the grid through ``run_points_report(jobs=1)``
until ``--seconds`` have passed and enough per-point samples exist for
the latency tail. With ``--trace 1`` it then runs one more repetition
with every layer of ``layers.LAYERS`` wrapped. Every repetition first
clears the trace cache, so it pays what a fresh ``repro run`` pays.

The last line of stdout is one JSON object (see :func:`main`).
``--setup-only`` stops after the imports and the grid are built, prints
``ready`` (``run.py`` times the span to it as set-up), then prints a
host-speed probe.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

import grids

#: Failures described in the output, beyond the count.
_MAX_FAILURE_NOTES = 5


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(grids.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", help="write traced spans here (Chrome JSON)")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _quiet(done: int, total: int) -> None:
    """Progress callback that keeps the runner's stderr log silent."""


def _warmup_specs(specs: list) -> list:
    """The first point of each (kernel, scheme): warms code paths, not caches."""
    seen = set()
    warm = []
    for spec in specs:
        key = (grids.kernel_of(spec), spec.scheme)
        if key not in seen:
            seen.add(key)
            warm.append(spec)
    return warm


class _Checker:
    """Counts attempted and failed points against the first repetition."""

    def __init__(self, specs: list):
        from repro.core.schemes import Scheme

        self.specs = specs
        self._unsec = Scheme.UNSEC
        self.reference: Optional[List[Optional[str]]] = None
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def _fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < _MAX_FAILURE_NOTES:
            self.notes.append(note)

    def check(self, results: list, what: str) -> None:
        from repro.sim.validation import ValidationError, validate_result
        from summary import result_digest

        digests: List[Optional[str]] = []
        for index, (spec, result) in enumerate(zip(self.specs, results)):
            self.attempted += 1
            label = f"{what} #{index} {spec.label()}"
            if result is None:
                digests.append(None)
                self._fail(f"{label}: runner failure")
                continue
            encrypted = None
            if grids.kernel_of(spec) != "recovery":
                encrypted = spec.scheme is not self._unsec
            n_banks = int(result.stats.get("config", "n_banks", 8))
            try:
                # Not after a warm-up: the warm-up's queued writes issue
                # after its counters reset, so write conservation cannot
                # hold (Figure 17 does not validate either).
                if not spec.warmup_ops:
                    validate_result(result, encrypted=encrypted, n_banks=n_banks)
            except ValidationError as exc:
                digests.append(None)
                self._fail(f"{label}: {exc}")
                continue
            digest = result_digest(result)
            digests.append(digest)
            if self.reference is not None and digest != self.reference[index]:
                self._fail(f"{label}: result digest differs from the first repetition")
        if self.reference is None:
            self.reference = digests


def _run_rep(specs: list) -> Tuple[float, list]:
    from repro.experiments.runner import run_points_report
    from repro.sim import trace_cache

    trace_cache.clear()
    t0 = time.perf_counter()
    results, _report = run_points_report(specs, jobs=1, progress=_quiet)
    return time.perf_counter() - t0, results


class _TimedReps:
    """Untimed warm-up, then whole timed repetitions of the grid.

    Each point is timed at the point boundary between two host-speed
    probes, and reported in reference seconds (see :mod:`hostspeed`). A
    repetition's time is its points' scaled times plus the time outside
    the points (the runner), scaled by the repetition's median factor.
    """

    def __init__(self, specs: list, checker: "_Checker"):
        import hostspeed
        import layers

        self.specs = specs
        self.checker = checker
        self.speed = hostspeed.SpeedLog()
        self.timer = layers.LayerTracer(
            layers.POINT_LAYERS, before_point=self.speed.measure
        )
        #: Per timed repetition: reference seconds, then unscaled seconds.
        self.rep_s: List[float] = []
        self.raw_rep_s: List[float] = []
        #: Reference seconds of every timed point, pooled.
        self.point_s: List[float] = []
        self.model: dict = {}

    def _rep(self, specs: list) -> list:
        import hostspeed

        first = len(self.timer.point_s)
        first_probe = len(self.speed.probes)
        spent = self.speed.spent_s
        wall, results = _run_rep(specs)
        work = wall - (self.speed.spent_s - spent)
        self.speed.measure()
        points = self.timer.point_s[first:]
        probes = self.speed.probes[first_probe:]
        # A point runs between its own probe and the next one.
        scales = [hostspeed.scale((a + b) / 2) for a, b in zip(probes, probes[1:])]
        scaled = [t * f for t, f in zip(points, scales)]
        outside = max(0.0, work - sum(points))
        self.rep_s.append(sum(scaled) + outside * statistics.median(scales))
        self.raw_rep_s.append(work)
        self.point_s += scaled
        return results

    def run(self, seconds: float, samples: int) -> None:
        from summary import model_metrics

        with self.timer:
            self._rep(_warmup_specs(self.specs))
            self.rep_s.clear()
            self.raw_rep_s.clear()
            self.point_s.clear()
            start = time.perf_counter()
            while (
                not self.rep_s
                or time.perf_counter() - start < seconds
                or len(self.point_s) < samples
            ):
                results = self._rep(self.specs)
                if not self.model:
                    self.model = model_metrics(r for r in results if r is not None)
                self.checker.check(results, f"rep {len(self.rep_s)}")


def _traced_rep(specs: list, checker: "_Checker", trace_file: Optional[str]) -> dict:
    """One repetition with every layer wrapped; its per-layer accounting."""
    import layers

    kernels = sorted({grids.kernel_of(spec) for spec in specs})
    tracer = layers.LayerTracer(layers.LAYERS, record_kernels=kernels)
    tracer.calibrate()
    with tracer:
        wall, results = _run_rep(specs)
    checker.check(results, "traced rep")
    if trace_file:
        path = Path(trace_file)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(tracer.chrome_trace()))
    return {
        "wall_s": wall,
        "span_cost_s": tracer.span_cost_s,
        "layers": tracer.layer_report(),
        "missing_targets": tracer.missing,
        "silent_layers": [
            layer
            for layer in layers.expected_layers(kernels)
            if tracer.calls[layer] == 0
        ],
        "spans_recorded": len(tracer.spans),
    }


def main(argv=None) -> int:
    """Measure one workload; print a JSON object as the last stdout line.

    Keys: ``points_per_rep``; ``rep_s`` and ``raw_rep_s`` (reference and
    unscaled seconds per timed repetition); ``point_s`` (reference
    seconds per point, pooled); ``attempted``, ``failed``,
    ``failure_notes``; ``peak_rss_kib``; ``model`` (simulated totals of
    the first repetition); ``trace`` (``null`` unless ``--trace 1``).
    With ``--setup-only``: ``ready``, then a host-speed probe in seconds.
    """
    args = _parse(argv)
    grids.use_checkout_src()
    import hostspeed
    import layers  # noqa: F401  (part of set-up: imported before "ready")
    import summary

    specs = grids.build(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        print(hostspeed.probe(), flush=True)
        return 0

    checker = _Checker(specs)
    reps = _TimedReps(specs, checker)
    reps.run(args.seconds, summary.samples_needed())
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    trace = _traced_rep(specs, checker, args.trace_file) if args.trace else None
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "points_per_rep": len(specs),
        "rep_s": reps.rep_s,
        "raw_rep_s": reps.raw_rep_s,
        "point_s": reps.point_s,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failure_notes": checker.notes,
        "peak_rss_kib": peak_rss_kib,
        "model": reps.model,
        "trace": trace,
    }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
