"""Wall-clock benchmark of the sweep runner (fidelity, warm cache, jobs).

Unlike the other files in this directory (pytest-benchmark shape checks of
*simulated* numbers), this one measures the harness itself: how long the
standard fig13 sweep takes at both fidelities, with the trace cache
warm, against a cold and a warm outcome store, and fanned out over
worker processes. It writes ``BENCH_SWEEP.json`` — the repo's perf
trajectory record.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_wallclock.py --scale smoke --jobs 4

or through the CLI hook::

    python -m repro bench-sweep --scale smoke --jobs 4

``--profile`` additionally runs one serial timing-fidelity fig13 sweep
under :mod:`cProfile` and prints the top 20 functions by cumulative time
(written to ``--profile-output`` for the CI artifact) — the
profile-guided half of the performance work: optimisations land where
this table says the time goes.
"""

import argparse
import sys


def _profile_sweep(scale: str, output: str) -> str:
    """cProfile one serial timing-fidelity sweep; return the top-20 table."""
    import cProfile
    import io
    import pstats

    from repro.experiments import fig13
    from repro.sim import trace_cache

    trace_cache.clear()
    profiler = cProfile.Profile()
    profiler.enable()
    fig13.run(scale)
    profiler.disable()

    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.strip_dirs().sort_stats("cumulative").print_stats(20)
    table = buf.getvalue()
    with open(output, "w") as fh:
        fh.write(table)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=("smoke", "default", "full"), default="smoke"
    )
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--output", default="BENCH_SWEEP.json")
    parser.add_argument(
        "--profile",
        action="store_true",
        help="also cProfile one serial timing-fidelity sweep and print the "
        "top 20 functions by cumulative time",
    )
    parser.add_argument(
        "--profile-output",
        default="BENCH_PROFILE.txt",
        metavar="PATH",
        help="where --profile writes its top-20 table (default: BENCH_PROFILE.txt)",
    )
    args = parser.parse_args(argv)

    from repro.experiments.bench import format_summary, run_sweep_benchmark

    payload = run_sweep_benchmark(
        scale=args.scale, jobs=args.jobs, output=args.output
    )
    print(format_summary(payload))
    print(f"wrote {args.output}", file=sys.stderr)
    if args.profile:
        print(_profile_sweep(args.scale, args.profile_output), end="")
        print(f"wrote {args.profile_output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
