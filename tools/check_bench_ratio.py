#!/usr/bin/env python3
"""Perf-regression ratchet over BENCH_SWEEP.json speedup ratios.

CI runs ``python -m repro bench-sweep`` and then this checker, which
fails the build when a recorded speedup ratio falls below its floor.
Ratios compare two production legs of the *same* run on the *same*
machine, so the check is robust to absolute runner speed (hosted CI
machines vary a lot) while still catching a real regression in the
harness state each pair isolates.

Current floor:

* ``timing_vs_full >= 1.4`` — the timing-fidelity sweep must stay at
  least 1.4x faster than the same sweep at full fidelity (measured
  ~1.87x on a 2-CPU host at introduction): functional byte work must
  stay off the timing-only path.

Usage::

    python tools/check_bench_ratio.py [BENCH_SWEEP.json]
"""

from __future__ import annotations

import json
import sys

#: speedup-key -> minimum acceptable ratio.
FLOORS = {
    "timing_vs_full": 1.4,
}


def check(path: str) -> int:
    with open(path) as fh:
        payload = json.load(fh)
    speedup = payload.get("speedup")
    if not isinstance(speedup, dict):
        print(f"ERROR: {path} has no 'speedup' block", file=sys.stderr)
        return 2
    failures = 0
    for key, floor in FLOORS.items():
        ratio = speedup.get(key)
        if not isinstance(ratio, (int, float)):
            print(f"ERROR: speedup ratio {key!r} missing from {path}", file=sys.stderr)
            failures += 1
            continue
        status = "ok" if ratio >= floor else "FAIL"
        print(f"{key}: {ratio}x (floor {floor}x) {status}")
        if ratio < floor:
            failures += 1
    if failures:
        print(
            f"ERROR: {failures} speedup ratio(s) out of bounds — a "
            "production leg regressed relative to its pair",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(check(sys.argv[1] if len(sys.argv) > 1 else "BENCH_SWEEP.json"))
