"""Compare two benchmark results files against the benchmark's bounds.

    python3 bench/compare.py A.json B.json

``A`` is the baseline and ``B`` the candidate, both ``results.json``
files written by ``run.py --out``. One row is printed per workload and
metric. The exit code is 1 if, on a workload both files ran, any
end-to-end metric of ``B`` is worse than ``A`` by more than its bound in
``BENCHMARK.json``, any ``model.*`` metric differs at all, or either run
had a failed point; 2 if an input cannot be read.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def compare(a: dict, b: dict, end_to_end: List[dict]) -> List[List[str]]:
    """Rows of ``[workload, metric, A, B, change, bound, verdict]``."""
    rows: List[List[str]] = []
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        run_a = a["workloads"][workload]
        run_b = b["workloads"][workload]
        for label, run in (("A", run_a), ("B", run_b)):
            verdict = "ok" if run["correct"] and run["failed"] == 0 else "FAIL"
            rows.append(
                [
                    workload,
                    f"failed ({label})",
                    str(run["failed"]),
                    "",
                    "",
                    "0",
                    verdict,
                ]
            )
        metrics_a: Dict[str, dict] = run_a["metrics"]
        metrics_b: Dict[str, dict] = run_b["metrics"]
        for spec in end_to_end:
            name = spec["name"]
            if name not in metrics_a and name not in metrics_b:
                continue
            if name not in metrics_a or name not in metrics_b:
                rows.append([workload, name, "", "", "", "", "FAIL (missing)"])
                continue
            va = metrics_a[name]["value"]
            vb = metrics_b[name]["value"]
            worse = _worse_by(va, vb, spec["better"])
            verdict = "FAIL" if worse > spec["bound"] else "ok"
            rows.append(
                [
                    workload,
                    name,
                    f"{va:.6g}",
                    f"{vb:.6g}",
                    f"{(vb - va) / va:+.2%}" if va else "",
                    f"{spec['bound']:.0%}",
                    verdict,
                ]
            )
        model = {n for n in set(metrics_a) | set(metrics_b) if n.startswith("model.")}
        for name in sorted(model):
            va = metrics_a.get(name, {}).get("value")
            vb = metrics_b.get(name, {}).get("value")
            verdict = "ok" if va == vb and va is not None else "FAIL (differs)"
            rows.append([workload, name, str(va), str(vb), "", "exact", verdict])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline results.json")
    parser.add_argument("b", help="candidate results.json")
    args = parser.parse_args(argv)
    try:
        a, b = _load(args.a), _load(args.b)
        end_to_end = _load(str(BENCHMARK))["end_to_end"]
        rows = compare(a, b, end_to_end)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"compare: cannot read inputs: {exc!r}", file=sys.stderr)
        return 2
    if not rows:
        print("compare: the two files share no workload", file=sys.stderr)
        return 1
    header = ["workload", "metric", "A", "B", "change", "bound", "verdict"]
    widths = [max(len(row[i]) for row in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    failures = [row for row in rows if row[-1] != "ok"]
    print(f"{len(failures)} of {len(rows)} rows outside the bounds")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
