#!/usr/bin/env python3
"""Perf-regression ratchet over BENCH_SWEEP.json speedup ratios.

CI runs ``python -m repro bench-sweep`` and then this checker, which
fails the build when a recorded speedup ratio falls below its floor.
Ratios compare two production legs of the *same* run on the *same*
machine, so the check is robust to absolute runner speed (hosted CI
machines vary a lot) while still catching a real regression in the
harness state each pair isolates.

Current floors:

* ``timing_vs_full >= 1.4`` — the timing-fidelity sweep must stay at
  least 1.4x faster than the same sweep at full fidelity (measured
  ~1.87x on a 2-CPU host at introduction): functional byte work must
  stay off the timing-only path.
* ``shared_vs_record >= 1.15`` — a warm fleet member reading every trace
  and recording from the on-disk outcome store (the ``shared-outcomes``
  leg) must stay at least 1.15x faster than a cold member that
  generates, records, and writes the store (``shared-record``).

Current ceilings:

* ``metrics_overhead <= 1.05`` — running the warm sweep with a real
  in-memory metrics registry (the ``warm-metrics`` leg) must cost at
  most 5% over the bare ``warm`` leg: the instrumented runner stays
  effectively free, and the NULL_METRICS default stays exactly free.

Usage::

    python tools/check_bench_ratio.py [BENCH_SWEEP.json]
"""

from __future__ import annotations

import json
import sys

#: speedup-key -> minimum acceptable ratio.
FLOORS = {
    "timing_vs_full": 1.4,
    "shared_vs_record": 1.15,
}

#: speedup-key -> maximum acceptable ratio (overhead caps).
CEILINGS = {
    "metrics_overhead": 1.05,
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
    for key, ceiling in CEILINGS.items():
        ratio = speedup.get(key)
        if not isinstance(ratio, (int, float)):
            print(f"ERROR: speedup ratio {key!r} missing from {path}", file=sys.stderr)
            failures += 1
            continue
        status = "ok" if ratio <= ceiling else "FAIL"
        print(f"{key}: {ratio}x (ceiling {ceiling}x) {status}")
        if ratio > ceiling:
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
