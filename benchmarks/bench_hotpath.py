"""Hot-path microbenchmark: per-component ns/op.

A cProfile of the fig13 sweep attributes the simulator's wall clock to
the crypto pad generation, the per-access cache walk, and the memory
system below it. This script measures those components directly:

* ``xor_bytes`` — one 64 B line XOR (int-XOR fast path).
* ``aes_pad`` / ``prf_pad`` — one counter-mode pad, memoized (warm) and
  uncached (cold).
* ``cache_walk`` — one L1/L2/L3 walk through ``CacheHierarchy.access``.
* ``engine_op`` — one trace op through a whole single-core
  ``Simulator.run`` (hierarchy recording, then the timing replay over
  the memory system and write queue), measured over a real workload.

It also runs one simulate_workload under cProfile and reports where the
cumulative time actually goes per top-level package component — the same
attribution that guided the optimisation; re-run it before chasing the
next bottleneck.

Run::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--ops 400] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _ns_per_call(fn, n: int, *, repeat: int = 3) -> float:
    """Best-of-``repeat`` average ns for one call of ``fn``."""
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        for _ in range(n):
            fn()
        wall = time.perf_counter() - started
        best = min(best, wall / n)
    return best * 1e9


def bench_crypto(results: dict) -> None:
    from repro.crypto.engine import AESPadEngine, PRFPadEngine
    from repro.crypto.otp import xor_bytes

    data = bytes(range(64))
    pad = bytes(reversed(range(256)))[:64]
    results["xor_bytes"] = _ns_per_call(lambda: xor_bytes(data, pad), 20000)

    warm_aes = AESPadEngine(b"k" * 16)
    warm_aes.pad(7, 3)  # prime the memo
    results["aes_pad_memo_hit"] = _ns_per_call(lambda: warm_aes.pad(7, 3), 20000)
    cold_aes = AESPadEngine(b"k" * 16, memo_entries=0)
    results["aes_pad_uncached"] = _ns_per_call(lambda: cold_aes.pad(7, 3), 5000)

    warm_prf = PRFPadEngine(b"k" * 16)
    warm_prf.pad(7, 3)
    results["prf_pad_memo_hit"] = _ns_per_call(lambda: warm_prf.pad(7, 3), 20000)
    cold_prf = PRFPadEngine(b"k" * 16, memo_entries=0)
    results["prf_pad_uncached"] = _ns_per_call(lambda: cold_prf.pad(7, 3), 5000)


def bench_cache_walk(results: dict) -> None:
    from repro.cache.hierarchy import CacheHierarchy
    from repro.common.config import SimConfig
    from repro.common.stats import Stats

    cfg = SimConfig()
    lines = [i * 3 for i in range(512)]
    access = CacheHierarchy(cfg.l1, cfg.l2, cfg.l3, cfg.timing, Stats()).access

    def walk():
        for line in lines:
            access(line, False)

    results["cache_walk"] = _ns_per_call(walk, 100) / len(lines)


def bench_engine_op(results: dict, n_ops: int) -> None:
    import dataclasses

    from repro.common.config import SimConfig
    from repro.core.schemes import Scheme, scheme_config
    from repro.sim.simulator import Simulator
    from repro.sim.trace_cache import cached_generate_trace

    cfg = dataclasses.replace(
        scheme_config(Scheme.SUPERMEM, SimConfig()), fidelity="timing"
    )
    trace = cached_generate_trace(
        "btree", n_ops=n_ops, request_size=1024, footprint=1 << 20, seed=1
    )
    best = float("inf")
    for _ in range(3):
        sim = Simulator(cfg)
        started = time.perf_counter()
        sim.run(trace.ops)
        best = min(best, time.perf_counter() - started)
    results["engine_op"] = best * 1e9 / len(trace.ops)
    results["engine_trace_ops"] = len(trace.ops)


def profile_components(n_ops: int) -> dict:
    """cProfile one sweep point; cumulative seconds per package component."""
    import cProfile
    import pstats

    from repro.core.schemes import Scheme
    from repro.sim.simulator import simulate_workload

    profiler = cProfile.Profile()
    profiler.enable()
    simulate_workload("btree", Scheme.SUPERMEM, n_ops=n_ops, request_size=1024)
    profiler.disable()

    components: dict = {}
    stats = pstats.Stats(profiler)
    for (filename, _, _), (_, _, tottime, _, _) in stats.stats.items():
        for component in (
            "crypto", "cache", "memory", "core", "sim", "txn", "workloads"
        ):
            if f"repro/{component}/" in filename.replace("\\", "/"):
                components[component] = components.get(component, 0.0) + tottime
                break
    return {k: round(v, 4) for k, v in sorted(components.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ops", type=int, default=400, help="trace transactions for engine_op"
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH", help="write results as JSON"
    )
    args = parser.parse_args(argv)

    results: dict = {}
    bench_crypto(results)
    bench_cache_walk(results)
    bench_engine_op(results, args.ops)

    pairs = (
        ("aes_pad", "aes_pad_uncached", "aes_pad_memo_hit"),
        ("prf_pad", "prf_pad_uncached", "prf_pad_memo_hit"),
    )
    print(f"{'component':>16} {'uncached':>12} {'memo hit':>12} {'speedup':>9}")
    for name, cold_key, warm_key in pairs:
        cold, warm = results[cold_key], results[warm_key]
        print(
            f"{name:>16} {cold:10.0f}ns {warm:10.0f}ns "
            f"{cold / warm if warm else 0.0:8.2f}x"
        )
    for name in ("xor_bytes", "cache_walk", "engine_op"):
        print(f"{name:>16} {'':>12} {results[name]:10.0f}ns")

    components = profile_components(args.ops)
    results["profile_components_s"] = components
    print("\ncProfile tottime by component (one supermem point):")
    for component, seconds in components.items():
        print(f"{component:>16} {seconds:10.4f}s")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
