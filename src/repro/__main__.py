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


def _run_experiment(
    name: str,
    scale: str,
    json_path: str | None = None,
    jobs: int = 1,
    journal: str | None = None,
    fidelity: str = "timing",
) -> str:
    """Run one experiment by name; returns rendered markdown.

    When ``json_path`` is given, the raw points are also exported there
    (experiments that produce point lists only). ``jobs`` fans the
    experiment's simulation grid over that many worker processes
    (results are bit-identical to serial; see docs/PERFORMANCE.md).
    ``journal`` enables ``--resume``: completed sweep points are appended
    to that JSONL file and skipped on a re-run (see docs/CLI.md).
    ``fidelity`` selects the simulation fidelity for the fig13-17 sweep
    grids ("timing" or "full"; identical results either way — see
    docs/PERFORMANCE.md). Crash/recovery experiments (table1,
    fig-recovery, related) inspect recovered bytes and always run at
    full fidelity regardless of this flag.
    """
    from repro.experiments import (
        ablations,
        fig13,
        fig14,
        fig15,
        fig16,
        fig17,
        fig_channels,
        fig_recovery,
        related_work,
        table1,
    )
    from repro.experiments.export import export_json

    points = None
    if name == "table1":
        # Crash injection is a handful of sequential scenarios, not a
        # sweep grid — always serial (and never journaled: each scenario
        # is cheap and stateful crash plumbing doesn't round-trip).
        points = table1.run()
        rendered = table1.render(points)
    elif name == "related":
        rendered = related_work.render(
            related_work.run_runtime(scale, jobs=jobs, journal=journal),
            related_work.run_recovery(),
        )
    elif name == "fig13":
        points = fig13.run(scale, jobs=jobs, journal=journal, fidelity=fidelity)
        rendered = fig13.render(points)
    elif name == "fig14":
        points = fig14.run(scale, jobs=jobs, journal=journal, fidelity=fidelity)
        rendered = fig14.render(points)
    elif name == "fig15":
        points = fig15.run(scale, jobs=jobs, journal=journal, fidelity=fidelity)
        rendered = fig15.render(points)
    elif name == "fig16":
        points = fig16.run(scale, jobs=jobs, journal=journal, fidelity=fidelity)
        rendered = fig16.render(points)
    elif name == "fig17":
        points = fig17.run(scale, jobs=jobs, journal=journal, fidelity=fidelity)
        rendered = fig17.render(points)
    elif name == "fig-channels":
        points = fig_channels.run(scale, jobs=jobs, journal=journal, fidelity=fidelity)
        rendered = fig_channels.render(points)
    elif name == "fig-recovery":
        points = fig_recovery.run(scale, jobs=jobs, journal=journal)
        rendered = fig_recovery.render(points)
    elif name == "ablations":
        rendered = ablations.render_all(scale, jobs=jobs, journal=journal)
    else:
        raise SystemExit(f"unknown experiment {name!r}; see `python -m repro list`")
    if json_path and points is not None:
        export_json(points, json_path, experiment=name)
    return rendered


EXPERIMENTS = (
    "table1",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig-channels",
    "fig-recovery",
    "ablations",
    "related",
)

_DESCRIPTIONS = {
    "table1": "Crash recoverability per transaction stage (crash injection)",
    "fig13": "Single-core txn latency: 5 workloads x 6 schemes x 3 sizes",
    "fig14": "Multi-programmed txn latency: 1/4/8 programs",
    "fig15": "NVM write requests normalised to Unsec",
    "fig16": "Write-queue length sensitivity (8..128 entries)",
    "fig17": "Counter-cache size sensitivity (1KB..4MB)",
    "fig-channels": "Channel-count sensitivity (1..8 channels at fixed banks)",
    "fig-recovery": "Section 6 recovery cost vs capacity/log/RSR/dirty fraction",
    "ablations": "Design-choice ablations (CWC policy, XBank offset, ...)",
    "related": "Section 6 related work: SCA / Osiris runtime + recovery cost",
}


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
        choices=EXPERIMENTS + ("all",),
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
        help="also export the raw experiment points as JSON (single experiment only)",
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
        "--fidelity",
        choices=("timing", "full"),
        default="timing",
        help="simulation fidelity for sweep experiments: 'timing' (default) "
        "skips functional byte-level crypto/NVM payloads for speed; 'full' "
        "carries payloads end to end — results are bit-identical either way "
        "(crash/recovery experiments always run full)",
    )
    run_parser.add_argument(
        "--retries",
        type=int,
        default=3,
        metavar="N",
        help="total execution attempts per sweep point before it is "
        "reported as failed (default 3; 1 disables retry)",
    )
    run_parser.add_argument(
        "--outcome-store",
        default=None,
        metavar="DIR",
        help="share generated traces and recorded cache-walk outcome "
        "streams across processes through an on-disk store: a 4-job "
        "sweep (or a second invocation) records each (trace, geometry) "
        "once fleet-wide, with bit-identical results (inspect the store "
        "with `repro cache`)",
    )

    bench_parser = sub.add_parser(
        "bench-sweep",
        help="time the fig13 sweep across harness states and --jobs (BENCH_SWEEP.json)",
    )
    bench_parser.add_argument(
        "--scale",
        choices=("smoke", "default", "full"),
        default="smoke",
        help="run size preset (default: smoke)",
    )
    bench_parser.add_argument(
        "--jobs",
        default="4",
        metavar="N",
        help="worker processes for the parallel leg ('auto' = CPU count; default 4)",
    )
    bench_parser.add_argument(
        "--output",
        default="BENCH_SWEEP.json",
        help="JSON output path (default: BENCH_SWEEP.json)",
    )
    bench_parser.add_argument(
        "--outcome-store",
        default=None,
        metavar="DIR",
        help="directory for the shared-record/shared-outcomes legs' "
        "on-disk outcome store (default: a per-run temp directory)",
    )

    cache_parser = sub.add_parser(
        "cache",
        help="inspect or prune an on-disk outcome store (see --outcome-store)",
    )
    cache_parser.add_argument(
        "store_dir",
        help="outcome-store directory (as passed to --outcome-store)",
    )
    cache_parser.add_argument(
        "--prune",
        action="store_true",
        help="evict least-recently-used entries beyond the size cap "
        "(with --cap-mb 0: remove every entry)",
    )
    cache_parser.add_argument(
        "--cap-mb",
        type=int,
        default=None,
        metavar="MB",
        help="size cap in MiB for --prune and the reported headroom "
        "(default: the store's built-in 256 MiB cap)",
    )
    cache_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the store summary as JSON instead of text",
    )

    trace_parser = sub.add_parser(
        "trace", help="generate a workload trace file (or summarise one)"
    )
    trace_parser.add_argument("workload", help="workload name, or a .smtr path with --summary")
    trace_parser.add_argument("--ops", type=int, default=200, help="transactions to record")
    trace_parser.add_argument("--request-size", type=int, default=1024)
    trace_parser.add_argument("--footprint", type=int, default=4 << 20)
    trace_parser.add_argument("--seed", type=int, default=1)
    trace_parser.add_argument("--output", default=None, help="trace file to write")
    trace_parser.add_argument(
        "--summary", action="store_true", help="summarise an existing trace file"
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
        "--fidelity",
        choices=("timing", "full"),
        default="timing",
        help="'timing' (default) skips functional byte work; 'full' runs "
        "the byte-level crypto path — identical timing/stats either way",
    )
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
        "--trace-jsonl",
        default=None,
        metavar="PATH",
        help="also write the event stream as compact JSONL",
    )
    sim_parser.add_argument(
        "--sample-ns",
        type=float,
        default=None,
        metavar="N",
        help="sample gauges (WQ occupancy, bank busy fraction, cc hit rate) "
        "every N simulated ns (implies tracing)",
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

    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "trace-report":
        return _cmd_trace_report(args)
    if args.command == "recovery-report":
        return _cmd_recovery_report(args)
    if args.command == "bench-sweep":
        return _cmd_bench_sweep(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "list":
        for name in EXPERIMENTS:
            print(f"{name:10s} {_DESCRIPTIONS[name]}")
        return 0

    jobs = _parse_jobs(args.jobs)
    _install_policy(args)
    _install_outcome_store(args)
    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    json_path = args.json if len(names) == 1 else None
    sections = []
    for name in names:
        started = time.time()
        print(
            f"[repro] running {name} (scale={args.scale}, jobs={jobs})...",
            file=sys.stderr,
        )
        sections.append(
            _run_experiment(
                name,
                args.scale,
                json_path=json_path,
                jobs=jobs,
                journal=args.resume,
                fidelity=args.fidelity,
            )
        )
        print(
            f"[repro] {name} done in {time.time() - started:.1f}s",
            file=sys.stderr,
        )
    output = "\n".join(sections)
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


def _install_outcome_store(args) -> None:
    """Map ``--outcome-store`` onto the experiments' default base config,
    so every spec (and through pickling, every worker) carries the path."""
    from repro.experiments.common import set_default_outcome_store

    set_default_outcome_store(args.outcome_store)


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


def _cmd_bench_sweep(args) -> int:
    from repro.experiments.bench import format_summary, run_sweep_benchmark

    jobs = _parse_jobs(args.jobs)
    print(
        f"[repro] benchmarking fig13 sweep (scale={args.scale}, jobs={jobs})...",
        file=sys.stderr,
    )
    payload = run_sweep_benchmark(
        scale=args.scale,
        jobs=jobs,
        output=args.output,
        outcome_store=args.outcome_store,
    )
    print(format_summary(payload))
    print(f"[repro] wrote {args.output}", file=sys.stderr)
    return 0


def _cmd_cache(args) -> int:
    import json

    from repro.sim.outcome_store import OutcomeStore

    cap_bytes = args.cap_mb << 20 if args.cap_mb is not None else None
    store = OutcomeStore(args.store_dir, cap_bytes=cap_bytes)
    pruned = store.gc() if args.prune else 0
    stats = store.stats()
    if args.prune:
        stats["pruned"] = pruned
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"outcome store: {stats['root']}")
    print(
        f"  {stats['entries']} entries, {stats['bytes']} bytes "
        f"(cap {stats['cap_bytes']})"
    )
    for kind, bucket in sorted(stats["by_kind"].items()):
        print(f"  {kind:>9}: {bucket['entries']} entries, {bucket['bytes']} bytes")
    if args.prune:
        print(f"  pruned {pruned} entries")
    return 0


def _cmd_trace(args) -> int:
    from repro.sim.tracefile import load_trace, save_trace, trace_summary
    from repro.workloads.generator import generate_trace

    if args.summary:
        ops = load_trace(args.workload)
        for key, value in trace_summary(ops).items():
            print(f"{key}: {value}")
        return 0
    trace = generate_trace(
        args.workload,
        n_ops=args.ops,
        request_size=args.request_size,
        footprint=args.footprint,
        seed=args.seed,
    )
    output = args.output or f"{args.workload}.smtr"
    size = save_trace(output, trace.ops)
    print(f"wrote {output}: {len(trace.ops)} ops, {size} bytes")
    return 0


def _cmd_simulate(args) -> int:
    import json

    from repro.core.schemes import Scheme
    from repro.obs import Tracer
    from repro.obs.export import write_chrome_trace, write_jsonl
    from repro.sim.profiling import profile_run
    from repro.sim.simulator import simulate_workload

    try:
        scheme = Scheme(args.scheme)
    except ValueError:
        raise SystemExit(
            f"unknown scheme {args.scheme!r}; expected one of "
            f"{[s.value for s in Scheme]}"
        )
    tracer = None
    if args.trace or args.trace_jsonl or args.sample_ns is not None:
        tracer = Tracer(sample_interval_ns=args.sample_ns)
    result = simulate_workload(
        args.workload,
        scheme,
        n_ops=args.ops,
        request_size=args.request_size,
        footprint=args.footprint,
        seed=args.seed,
        tracer=tracer,
        fidelity=args.fidelity,
    )
    print(f"{args.workload} under {scheme.label}: {result.summary()}")
    print(f"total time: {result.total_time_ns:.0f} ns")
    if args.profile:
        print(profile_run(result).format())
    if tracer is not None and args.trace:
        n_events = write_chrome_trace(tracer, args.trace)
        print(f"wrote {args.trace}: {n_events} trace events", file=sys.stderr)
    if tracer is not None and args.trace_jsonl:
        n_events = write_jsonl(tracer, args.trace_jsonl)
        print(f"wrote {args.trace_jsonl}: {n_events} events", file=sys.stderr)
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

    print(render_report_file(args.trace_file, n_buckets=args.buckets))
    return 0


def _cmd_recovery_report(args) -> int:
    import json

    from repro.common.config import SimConfig, MemoryConfig
    from repro.core.recovery_cost import recovery_trace_events, run_recovery_scenario
    from repro.core.schemes import Scheme

    try:
        scheme = Scheme(args.scheme)
    except ValueError:
        raise SystemExit(
            f"unknown scheme {args.scheme!r}; expected one of "
            f"{[s.value for s in Scheme]}"
        )
    base = SimConfig(memory=MemoryConfig(capacity=args.capacity))
    report, recovered, shadow = run_recovery_scenario(
        scheme,
        base_config=base,
        n_txns=args.txns,
        request_size=args.request_size,
        seed=args.seed,
        log_lines=args.log_lines,
        rsr=args.rsr,
        dirty_frac=args.dirty_frac,
    )
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
