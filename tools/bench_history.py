#!/usr/bin/env python3
"""Bench-trend analytics: accumulate BENCH_SWEEP.json runs, flag drift.

``check_bench_ratio.py`` is a hard ratchet against fixed floors; this
tool watches the *trend*. Each invocation appends the current
``BENCH_SWEEP.json`` speedup block (plus per-leg wall times and a little
host context) as one JSONL record to a history file, then compares every
speedup ratio against the trailing median of the previous runs: a ratio
that moved against its good direction by more than ``--tolerance``
(default 20%) is flagged as drift. Ratios compare legs of the same run,
so the history is meaningful even across heterogeneous CI hosts.

Exit code is 0 unless ``--strict`` is given and drift was flagged — CI
uploads the history as an artifact and stays advisory, so a noisy runner
cannot fail the build twice for one regression (the ratchet already
guards the floor).

Usage::

    python tools/bench_history.py BENCH_SWEEP.json --history BENCH_HISTORY.jsonl
    python tools/bench_history.py --report --history BENCH_HISTORY.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

#: Ratios where bigger is better; anything else in the speedup block is
#: treated as an overhead ratio (smaller is better), e.g. metrics_overhead.
HIGHER_IS_BETTER = (
    "shared_vs_record",
    "timing_vs_full",
    "parallel_vs_serial",
    "resume_vs_parallel",
)


def load_history(path: str) -> List[Dict[str, object]]:
    """Read the history JSONL (missing file or torn lines tolerated)."""
    records: List[Dict[str, object]] = []
    if not os.path.exists(path):
        return records
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def record_from_bench(path: str) -> Dict[str, object]:
    """One history record distilled from a BENCH_SWEEP.json payload."""
    with open(path) as fh:
        payload = json.load(fh)
    return {
        "ts": time.time(),
        "speedup": payload.get("speedup", {}),
        "wall_s": {
            run["name"]: run["wall_s"] for run in payload.get("runs", ())
        },
        "scale": next(
            (run["scale"] for run in payload.get("runs", ())), None
        ),
        "host_cpus": payload.get("host_cpus"),
    }


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def find_regressions(
    history: List[Dict[str, object]],
    current: Dict[str, object],
    window: int = 5,
    tolerance: float = 0.20,
) -> List[str]:
    """Ratios in ``current`` that drifted vs the trailing-window median.

    Returns human-readable flag strings; empty when the history is too
    short (fewer than 2 prior runs) or nothing moved beyond tolerance.
    """
    prior = history[-window:]
    if len(prior) < 2:
        return []
    flags: List[str] = []
    speedup = current.get("speedup", {})
    for key, value in sorted(speedup.items()):  # type: ignore[union-attr]
        if not isinstance(value, (int, float)):
            continue
        samples = [
            r["speedup"][key]
            for r in prior
            if isinstance(r.get("speedup", {}).get(key), (int, float))
        ]
        if len(samples) < 2:
            continue
        median = _median(samples)
        if median <= 0:
            continue
        if key in HIGHER_IS_BETTER:
            if value < median * (1.0 - tolerance):
                flags.append(
                    f"{key}: {value}x is {100 * (1 - value / median):.0f}% below "
                    f"the trailing median {median:.3f}x over {len(samples)} runs"
                )
        else:  # overhead ratio: growth is the bad direction
            if value > median * (1.0 + tolerance):
                flags.append(
                    f"{key}: {value}x is {100 * (value / median - 1):.0f}% above "
                    f"the trailing median {median:.3f}x over {len(samples)} runs"
                )
    return flags


def format_report(history: List[Dict[str, object]], window: int = 10) -> str:
    """A trend table over the last ``window`` history records."""
    recent = history[-window:]
    if not recent:
        return "no history recorded yet"
    keys: List[str] = []
    for record in recent:
        for key in record.get("speedup", {}):  # type: ignore[union-attr]
            if key not in keys:
                keys.append(key)
    lines = [f"bench history: last {len(recent)} of {len(history)} run(s)"]
    for key in keys:
        values = [
            r["speedup"][key]
            for r in recent
            if isinstance(r.get("speedup", {}).get(key), (int, float))
        ]
        if not values:
            continue
        direction = "^" if key in HIGHER_IS_BETTER else "v"
        trail = " ".join(f"{v:.2f}" for v in values)
        lines.append(
            f"  {key:>20} ({direction}) median {_median(values):6.3f}x  [{trail}]"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "bench_json",
        nargs="?",
        default=None,
        help="BENCH_SWEEP.json to append (omit with --report to only read)",
    )
    parser.add_argument(
        "--history",
        default="BENCH_HISTORY.jsonl",
        help="history JSONL file (default BENCH_HISTORY.jsonl)",
    )
    parser.add_argument(
        "--window", type=int, default=5, help="trailing runs for the median (default 5)"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="fractional drift vs the median to flag (default 0.20)",
    )
    parser.add_argument(
        "--strict", action="store_true", help="exit 1 when drift is flagged"
    )
    parser.add_argument(
        "--report", action="store_true", help="print the trend table"
    )
    args = parser.parse_args(argv)

    history = load_history(args.history)
    flagged: List[str] = []
    if args.bench_json is not None:
        current = record_from_bench(args.bench_json)
        flagged = find_regressions(
            history, current, window=args.window, tolerance=args.tolerance
        )
        with open(args.history, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(current, sort_keys=True))
            fh.write("\n")
        history.append(current)
        print(f"appended run to {args.history} ({len(history)} total)")
        for flag in flagged:
            print(f"DRIFT: {flag}", file=sys.stderr)
        if not flagged and len(history) >= 3:
            print("no ratio drifted beyond tolerance")
    if args.report:
        print(format_report(history))
    if args.bench_json is None and not args.report:
        parser.error("nothing to do: pass BENCH_SWEEP.json and/or --report")
    return 1 if (flagged and args.strict) else 0


if __name__ == "__main__":
    raise SystemExit(main())
