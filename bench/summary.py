"""Metric definitions and the arithmetic that turns raw runs into metrics.

Host metrics are wall-clock measurements of the simulator; ``model.*``
metrics are simulated counts summed from ``SimResult.stats``, which are
deterministic for a given seed and must not move under a change that
only speeds up the simulator.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from layers import COMMON_LAYERS, LAYER_NAMES
from repro.experiments.journal import result_to_record
from repro.obs.histogram import nearest_rank

#: Samples that must lie beyond a reported percentile, and in a reported tail.
MIN_BEYOND = 10
#: The per-point latency tail: the points slower than this percentile.
TAIL_PERCENTILE = 95

#: ``(name, unit, better)`` of every end-to-end metric, in print order.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("wall_s", "s", "lower"),
    ("points_per_s", "points/s", "higher"),
    ("point_ms_p50", "ms", "lower"),
    ("point_ms_slowest5pct", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: ``(name, unit, better)`` of the simulated-model metrics.
MODEL: Tuple[Tuple[str, str, str], ...] = (
    ("model.sim_ms", "sim_ms", "lower"),
    ("model.txns", "count", "higher"),
    ("model.l1.miss_rate", "ratio", "lower"),
    ("model.l3.miss_rate", "ratio", "lower"),
    ("model.cc.miss_rate", "ratio", "lower"),
    ("model.secmem.counter_fetches", "count", "lower"),
    ("model.wq.appends", "count", "lower"),
    ("model.wq.cwc_coalesced_frac", "ratio", "higher"),
    ("model.wq.read_forwards", "count", "higher"),
    ("model.wq.stall_ms", "sim_ms", "lower"),
    ("model.wq.peak_occupancy", "entries", "lower"),
    ("model.nvm.writes", "count", "lower"),
    ("model.bank.busy_ms", "sim_ms", "lower"),
    ("model.bank.row_hit_rate", "ratio", "higher"),
    ("model.it.node_updates", "count", "lower"),
    ("model.it.coalesced_frac", "ratio", "higher"),
    ("model.recovery.aes_ops", "count", "lower"),
)


def _layer_metrics(all_layers: bool) -> Tuple[Tuple[str, str, str], ...]:
    metrics = []
    for layer in LAYER_NAMES:
        if all_layers or layer in COMMON_LAYERS:
            metrics.append((f"{layer}.self_s", "s", "lower"))
        metrics.append((f"{layer}.share", "ratio", "lower"))
        metrics.append((f"{layer}.calls", "count", "lower"))
    metrics.append(("trace.overhead", "ratio", "lower"))
    return tuple(metrics) + MODEL


#: The per-layer metrics of the result line. A layer that some workload
#: never reaches reports share and calls there but no self time, so no
#: reported time is a constant zero.
PER_LAYER = _layer_metrics(all_layers=False)
#: Every per-layer metric, as written to the results file.
PER_LAYER_ALL = _layer_metrics(all_layers=True)


def samples_needed(p: float = TAIL_PERCENTILE) -> int:
    """The fewest samples with :data:`MIN_BEYOND` beyond the p-th percentile."""
    n = 1
    while n - nearest_rank(p, n) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; refuses one with too few samples beyond it."""
    ordered = sorted(values)
    rank = nearest_rank(p, len(ordered))
    if len(ordered) - rank < MIN_BEYOND:
        raise ValueError(
            f"p{p} of {len(ordered)} samples has {len(ordered) - rank} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def tail_mean(values: Sequence[float], p: float = TAIL_PERCENTILE) -> float:
    """Mean of the samples beyond the p-th percentile (at least MIN_BEYOND).

    Unlike the percentile itself, this does not sit on a boundary
    between points: on the 19-point recovery grid the nearest-rank p95
    is the fastest run of the slowest point, which jumped between 79 and
    91 ms from run to run at a fixed seed.
    """
    ordered = sorted(values)
    beyond = len(ordered) - nearest_rank(p, len(ordered))
    if beyond < MIN_BEYOND:
        raise ValueError(f"{beyond} samples beyond p{p}; need {MIN_BEYOND}")
    return statistics.fmean(ordered[-beyond:])


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def result_digest(result) -> str:
    """sha256 of one ``SimResult`` in its lossless journal form."""
    canon = json.dumps(result_to_record(result), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def _family(space: str) -> str:
    """Stats namespace without its per-core or per-bank index."""
    if space.startswith("bank."):
        return "bank"
    if space.startswith("core") and "." in space:
        return space.split(".", 1)[1]
    return space


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def model_metrics(results) -> Dict[str, float]:
    """Simulated totals over one repetition's results (deterministic)."""
    total: Dict[Tuple[str, str], float] = defaultdict(float)
    peak = 0.0
    sim_ns = 0.0
    txns = 0
    for result in results:
        sim_ns += result.total_time_ns
        txns += result.n_txns
        for space, counter, value in result.stats:
            if (space, counter) == ("wq", "peak_occupancy"):
                peak = max(peak, value)
            else:
                total[_family(space), counter] += value

    def get(space: str, counter: str) -> float:
        return total.get((space, counter), 0.0)

    row_hits = get("bank", "row_hits")
    coalesced = get("it", "coalesced_updates")
    return {
        "model.sim_ms": sim_ns / 1e6,
        "model.txns": txns,
        "model.l1.miss_rate": _ratio(get("l1", "misses"), get("l1", "accesses")),
        "model.l3.miss_rate": _ratio(get("l3", "misses"), get("l3", "accesses")),
        "model.cc.miss_rate": _ratio(get("cc", "misses"), get("cc", "accesses")),
        "model.secmem.counter_fetches": get("secmem", "counter_fetches"),
        "model.wq.appends": get("wq", "appends"),
        "model.wq.cwc_coalesced_frac": _ratio(
            get("wq", "cwc_coalesced"), get("wq", "counter_appends")
        ),
        "model.wq.read_forwards": get("wq", "read_forwards"),
        "model.wq.stall_ms": get("wq", "stall_ns") / 1e6,
        "model.wq.peak_occupancy": peak,
        "model.nvm.writes": get("nvm", "writes"),
        "model.bank.busy_ms": get("bank", "busy_ns") / 1e6,
        "model.bank.row_hit_rate": _ratio(
            row_hits, row_hits + get("bank", "row_misses")
        ),
        "model.it.node_updates": get("it", "node_updates"),
        # Each step of a tree-update walk either rehashes a node or stops
        # at a dirty ancestor; this is the share that stopped.
        "model.it.coalesced_frac": _ratio(
            coalesced, coalesced + get("it", "node_updates")
        ),
        "model.recovery.aes_ops": get("recovery", "aes_ops"),
    }


def _metric(value: float, unit: str, **extra) -> Dict[str, object]:
    return {"value": value, "unit": unit, **extra}


def end_to_end(run: dict, setup_s: Sequence[float]) -> Dict[str, dict]:
    """End-to-end metrics of one child run plus its set-up times.

    Times are in reference seconds (see :mod:`hostspeed`); ``wall_s``
    also carries its unscaled median.
    """
    walls = run["rep_s"]
    q1, wall, q3 = quartiles(walls)
    point_ms = [s * 1e3 for s in run["point_s"]]
    n = len(point_ms)
    setup_q = quartiles(setup_s)
    return {
        "wall_s": _metric(
            wall,
            "s",
            q1=q1,
            q3=q3,
            reps=len(walls),
            unscaled=statistics.median(run["raw_rep_s"]),
        ),
        "points_per_s": _metric(run["points_per_rep"] / wall, "points/s"),
        "point_ms_p50": _metric(percentile(point_ms, 50), "ms", samples=n),
        "point_ms_slowest5pct": _metric(
            tail_mean(point_ms),
            "ms",
            samples=n,
            p95=percentile(point_ms, TAIL_PERCENTILE),
        ),
        "setup_s": _metric(
            setup_q[1], "s", q1=setup_q[0], q3=setup_q[2], probes=len(setup_s)
        ),
        "peak_rss_mb": _metric(run["peak_rss_kib"] / 1024.0, "MiB"),
    }


def per_layer(run: dict) -> Dict[str, dict]:
    """Every per-layer metric (:data:`PER_LAYER_ALL`) of one traced run."""
    traced = run["trace"]
    layers = traced["layers"]
    total = sum(entry["self_s"] for entry in layers.values())
    metrics: Dict[str, dict] = {}
    for layer in LAYER_NAMES:
        entry = layers[layer]
        metrics[f"{layer}.self_s"] = _metric(entry["self_s"], "s")
        metrics[f"{layer}.share"] = _metric(_ratio(entry["self_s"], total), "ratio")
        metrics[f"{layer}.calls"] = _metric(entry["calls"], "count")
    metrics["trace.overhead"] = _metric(
        traced["wall_s"] / statistics.median(run["raw_rep_s"]),
        "ratio",
        span_cost_us=traced["span_cost_s"] * 1e6,
    )
    units = {name: unit for name, unit, _ in MODEL}
    for name, value in run["model"].items():
        metrics[name] = _metric(value, units[name])
    return metrics
