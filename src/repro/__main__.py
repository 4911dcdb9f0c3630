"""Command-line entry point: regenerate the paper's tables and figures.

Examples
--------
List the available experiments::

    python -m repro list

Regenerate one figure at the default scale::

    python -m repro run fig13

Regenerate everything the paper reports (markdown to stdout)::

    python -m repro run all --scale full
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import suite


def build_parser() -> argparse.ArgumentParser:
    """The complete argparse tree (also introspected by the docs-drift
    test, which asserts every subcommand and flag appears in docs/CLI.md)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SuperMem (MICRO 2019) reproduction experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_parser = sub.add_parser("run", help="run experiment(s)")
    run_parser.add_argument(
        "experiment",
        choices=tuple(suite.EXPERIMENTS) + ("all",),
        help="which paper artifact to regenerate",
    )
    run_parser.add_argument(
        "--scale",
        choices=("smoke", "default", "full"),
        default="default",
        help="run size preset (default: default)",
    )
    run_parser.add_argument(
        "--output",
        default=None,
        help="write markdown to this file instead of stdout",
    )
    run_parser.add_argument(
        "--json",
        default=None,
        help="also export the experiment's rows as JSON (one experiment, not all)",
    )
    run_parser.add_argument(
        "--jobs",
        default="1",
        metavar="N",
        help="worker processes for the sweep grid ('auto' = CPU count; "
        "default 1 = serial; output is bit-identical either way)",
    )
    run_parser.add_argument(
        "--resume",
        default=None,
        metavar="JOURNAL",
        help="journal completed sweep points to this JSONL file and skip "
        "points already journaled there — an interrupted sweep re-run "
        "with the same journal is bit-identical to an uninterrupted one "
        "(see docs/CLI.md and docs/PERFORMANCE.md)",
    )
    run_parser.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry any sweep point whose worker exceeds this "
        "wall-clock budget (default: no timeout)",
    )
    run_parser.add_argument(
        "--retries",
        type=int,
        default=3,
        metavar="N",
        help="total execution attempts per sweep point before it is "
        "reported as failed (default 3; 1 disables retry)",
    )

    sim_parser = sub.add_parser("simulate", help="simulate one workload/scheme point")
    sim_parser.add_argument("workload")
    sim_parser.add_argument(
        "--scheme", default="supermem", help="unsec/wb/wt/wt+cwc/wt+xbank/supermem/sca/osiris/supermem+bmt"
    )
    sim_parser.add_argument("--ops", type=int, default=200)
    sim_parser.add_argument("--request-size", type=int, default=1024)
    sim_parser.add_argument("--footprint", type=int, default=4 << 20)
    sim_parser.add_argument("--seed", type=int, default=1)
    sim_parser.add_argument(
        "--profile", action="store_true", help="print the bank/WQ profile"
    )
    sim_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record an event trace and write Chrome trace-event JSON "
        "(open in Perfetto or chrome://tracing)",
    )
    sim_parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the SimResult summary as JSON ('-' for stdout)",
    )

    report_parser = sub.add_parser(
        "trace-report",
        help="per-phase breakdown of a trace recorded with simulate --trace",
    )
    report_parser.add_argument("trace_file", help="Chrome trace JSON from --trace")
    report_parser.add_argument(
        "--buckets", type=int, default=12, help="number of time buckets (phases)"
    )

    recovery_parser = sub.add_parser(
        "recovery-report",
        help="price one post-crash recovery (timed model; see docs/RECOVERY.md)",
    )
    recovery_parser.add_argument(
        "scheme", help="recovery scheme: supermem/supermem+bmt/sca/osiris (path is derived)"
    )
    recovery_parser.add_argument(
        "--capacity", type=int, default=32 << 20, help="NVM capacity in bytes"
    )
    recovery_parser.add_argument(
        "--log-lines", type=int, default=256, help="undo-log region size in 64 B lines"
    )
    recovery_parser.add_argument(
        "--rsr",
        choices=("armed", "off"),
        default="off",
        help="crash mid page re-encryption so recovery must resume the RSR",
    )
    recovery_parser.add_argument(
        "--dirty-frac",
        type=float,
        default=0.0,
        help="fraction of pre-crash transactions with still-dirty counters "
        "(write-back schemes only)",
    )
    recovery_parser.add_argument(
        "--txns", type=int, default=16, help="transactions executed before the crash"
    )
    recovery_parser.add_argument("--request-size", type=int, default=256)
    recovery_parser.add_argument("--seed", type=int, default=1)
    recovery_parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the cost report as JSON ('-' for stdout)",
    )
    recovery_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write the recovery phases as Chrome trace-event JSON",
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "trace-report":
        return _cmd_trace_report(args)
    if args.command == "recovery-report":
        return _cmd_recovery_report(args)
    if args.command == "list":
        width = max(map(len, suite.EXPERIMENTS))
        for name, experiment in suite.EXPERIMENTS.items():
            print(f"{name:{width}s} {experiment.description}")
        return 0

    from repro.experiments.export import export_json

    if args.json and args.experiment == "all":
        raise SystemExit(
            "--json exports one experiment's rows; name one experiment, not all"
        )
    jobs = _parse_jobs(args.jobs)
    _install_policy(args)
    started = time.time()
    print(
        f"[repro] running {args.experiment} (scale={args.scale}, jobs={jobs})...",
        file=sys.stderr,
    )
    rows = suite.run(args.experiment, args.scale, jobs=jobs, journal=args.resume)
    if args.json:
        export_json(rows[args.experiment], args.json, experiment=args.experiment)
    output = "\n".join(
        suite.EXPERIMENTS[name].render(points) for name, points in rows.items()
    )
    print(
        f"[repro] {args.experiment} done in {time.time() - started:.1f}s",
        file=sys.stderr,
    )
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(output)
        print(f"[repro] wrote {args.output}", file=sys.stderr)
    else:
        print(output)
    return 0


def _install_policy(args) -> None:
    """Map ``--point-timeout``/``--retries`` onto the runner's default
    :class:`~repro.experiments.runner.RunnerPolicy` for this process."""
    from repro.experiments.runner import RunnerPolicy, set_default_policy

    if args.retries < 1:
        raise SystemExit(f"--retries must be >= 1, got {args.retries}")
    set_default_policy(
        RunnerPolicy(point_timeout_s=args.point_timeout, max_attempts=args.retries)
    )


def _parse_jobs(value: str) -> int:
    """Parse a ``--jobs`` value: a positive integer or ``auto``."""
    if value == "auto":
        from repro.experiments.runner import default_jobs

        return default_jobs()
    try:
        jobs = int(value)
    except ValueError:
        raise SystemExit(f"--jobs expects a positive integer or 'auto', got {value!r}")
    if jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {jobs}")
    return jobs


def _cmd_simulate(args) -> int:
    import json

    from repro.common.errors import ConfigError
    from repro.core.schemes import Scheme
    from repro.obs import Tracer
    from repro.obs.export import write_chrome_trace
    from repro.sim.profiling import profile_run
    from repro.sim.simulator import simulate_workload
    from repro.workloads.generator import workload_class

    try:
        scheme = Scheme(args.scheme)
    except ValueError:
        raise SystemExit(
            f"unknown scheme {args.scheme!r}; expected one of "
            f"{[s.value for s in Scheme]}"
        )
    try:
        workload_class(args.workload)
    except ConfigError as exc:
        raise SystemExit(str(exc))
    tracer = Tracer() if args.trace else None
    try:
        result = simulate_workload(
            args.workload,
            scheme,
            n_ops=args.ops,
            request_size=args.request_size,
            footprint=args.footprint,
            seed=args.seed,
            tracer=tracer,
        )
    except ConfigError as exc:
        raise SystemExit(str(exc))
    print(f"{args.workload} under {scheme.label}: {result.summary()}")
    print(f"total time: {result.total_time_ns:.0f} ns")
    if args.profile:
        print(profile_run(result).format())
    if tracer is not None:
        n_events = write_chrome_trace(tracer, args.trace)
        print(f"wrote {args.trace}: {n_events} trace events", file=sys.stderr)
    if args.json:
        payload = json.dumps(result.to_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload)
                fh.write("\n")
            print(f"wrote {args.json}", file=sys.stderr)
    return 0


def _cmd_trace_report(args) -> int:
    from repro.obs.report import render_report_file

    if args.buckets < 1:
        raise SystemExit(f"--buckets must be >= 1, got {args.buckets}")
    try:
        text = render_report_file(args.trace_file, n_buckets=args.buckets)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot report on {args.trace_file!r}: {exc}")
    print(text)
    return 0


def _cmd_recovery_report(args) -> int:
    import json

    from repro.common.config import SimConfig, MemoryConfig
    from repro.common.errors import ConfigError
    from repro.core.recovery_cost import recovery_trace_events, run_recovery_scenario
    from repro.core.schemes import Scheme

    try:
        scheme = Scheme(args.scheme)
    except ValueError:
        raise SystemExit(
            f"unknown scheme {args.scheme!r}; expected one of "
            f"{[s.value for s in Scheme]}"
        )
    try:
        report, recovered, shadow = run_recovery_scenario(
            scheme,
            base_config=SimConfig(memory=MemoryConfig(capacity=args.capacity)),
            n_txns=args.txns,
            request_size=args.request_size,
            seed=args.seed,
            log_lines=args.log_lines,
            rsr=args.rsr,
            dirty_frac=args.dirty_frac,
        )
    except ConfigError as exc:
        raise SystemExit(str(exc))
    mismatches = recovered.audit_against_shadow(shadow)
    print(f"{scheme.label} recovery ({report.path} path): {report.time_ns:.0f} ns")
    for name, start, end in report.phases:
        print(f"  {name:14s} {end - start:12.1f} ns")
    print(
        f"  reads: {report.nvm_reads} ({report.counter_line_reads} counter), "
        f"writes: {report.nvm_writes}, aes: {report.aes_ops}, "
        f"trials: {report.trial_decryptions}, replay: {report.replay_writes}"
    )
    print(f"  audit: {len(mismatches)} mismatching lines of {len(shadow)} flushed")
    if args.trace:
        from repro.obs import Tracer
        from repro.obs.export import write_chrome_trace

        tracer = Tracer()
        tracer.events.extend(recovery_trace_events(report))
        n_events = write_chrome_trace(tracer, args.trace)
        print(f"wrote {args.trace}: {n_events} trace events", file=sys.stderr)
    if args.json:
        payload = report.to_dict()
        payload["scheme"] = scheme.label
        payload["audit_mismatches"] = len(mismatches)
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text)
                fh.write("\n")
            print(f"wrote {args.json}", file=sys.stderr)
    return len(mismatches) and 1 or 0


if __name__ == "__main__":
    raise SystemExit(main())
