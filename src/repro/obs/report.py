"""``repro trace-report``: time-bucketed analysis of an exported trace.

Aggregate counters hide the dynamics the paper argues from: *when* the
write queue saturated, how the CWC coalesce rate ramps as counter entries
accumulate residency, whether XBank actually evened bank busy time out
over the whole run or only on average. This module reads a Chrome trace
JSON written by ``repro simulate --trace`` and reports:

* exact transaction-latency and full-queue-stall percentiles, from the
  durations of the ``txn`` and ``full_stall`` events (the nearest-rank
  definition :class:`~repro.sim.metrics.SimResult` uses), and
* the run folded into N equal time buckets ("phases"), per phase:
  write-queue occupancy (mean and peak of the ``wq.occupancy`` counter),
  full-queue stall time, counter-append and coalesce counts and the
  coalesce rate, and per-bank busy time folded into the hottest/mean
  imbalance factor.

Stalls and bank busy intervals are spread over every phase they overlap.
Everything derives from the event stream alone, so a trace file is a
self-contained artefact: the report does not need the run's config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.obs.histogram import nearest_rank


@dataclass
class PhaseBucket:
    """Aggregated activity of one time slice of the run."""

    start_ns: float
    end_ns: float
    wq_occ_sum: float = 0.0
    wq_occ_n: int = 0
    wq_occ_max: float = 0.0
    stall_ns: float = 0.0
    counter_appends: int = 0
    data_appends: int = 0
    coalesced: int = 0
    #: Busy ns of every bank the trace declares; idle banks stay at 0.
    bank_busy_ns: Dict[int, float] = field(default_factory=dict)

    @property
    def wq_occ_mean(self) -> float:
        return self.wq_occ_sum / self.wq_occ_n if self.wq_occ_n else 0.0

    @property
    def coalesce_rate(self) -> float:
        """Coalesced fraction of this phase's counter appends."""
        if not self.counter_appends:
            return 0.0
        return self.coalesced / self.counter_appends

    @property
    def bank_imbalance(self) -> float:
        """Hottest bank's busy time over the mean of all banks.

        1.0 is perfectly even. Idle banks count as 0, so one busy bank of
        eight reads 8.0; a phase with no bank activity reads 0.0.
        """
        if not self.bank_busy_ns:
            return 0.0
        mean = sum(self.bank_busy_ns.values()) / len(self.bank_busy_ns)
        return max(self.bank_busy_ns.values()) / mean if mean else 0.0


@dataclass
class TraceReport:
    """The folded trace: phase buckets plus run-level totals."""

    span_ns: float
    buckets: List[PhaseBucket]
    total_stall_ns: float
    total_counter_appends: int
    total_data_appends: int
    total_coalesced: int
    #: Durations of every ``txn`` event, ascending.
    txn_ns: List[float]
    #: Durations of every ``full_stall`` event, ascending.
    stall_durations_ns: List[float]


def percentile(ordered: List[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not ordered:
        return 0.0
    return ordered[nearest_rank(p, len(ordered)) - 1]


def load_chrome_trace(path: str) -> dict:
    """Read a ``--trace`` output file back into its JSON object."""
    with open(path) as fh:
        return json.load(fh)


def _thread_names(events: List[dict]) -> Dict[int, str]:
    names: Dict[int, str] = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            names[event["tid"]] = event["args"]["name"]
    return names


def build_report(payload: dict, n_buckets: int = 12) -> TraceReport:
    """Fold a loaded trace into ``n_buckets`` equal phases."""
    if n_buckets < 1:
        raise ValueError("need at least one bucket")
    events = payload.get("traceEvents", [])
    tracks = _thread_names(events)
    banks = {
        tid: int(name.split(".", 1)[1])
        for tid, name in tracks.items()
        if name.startswith("bank.")
    }
    # Timestamps in the file are microseconds (Chrome convention).
    timed = [e for e in events if e.get("ph") != "M"]
    if not timed:
        raise ValueError("trace contains no events")
    t0 = min(e["ts"] for e in timed) * 1000.0
    t1 = max(e["ts"] + e.get("dur", 0.0) for e in timed) * 1000.0
    span = max(t1 - t0, 1.0)
    width = span / n_buckets
    buckets = [
        PhaseBucket(
            start_ns=t0 + i * width,
            end_ns=t0 + (i + 1) * width,
            bank_busy_ns=dict.fromkeys(banks.values(), 0.0),
        )
        for i in range(n_buckets)
    ]

    def bucket_of(ts_ns: float) -> PhaseBucket:
        index = int((ts_ns - t0) / width)
        return buckets[min(max(index, 0), n_buckets - 1)]

    def overlaps(begin: float, end: float) -> Iterator[Tuple[PhaseBucket, float]]:
        """Each bucket the interval [begin, end) overlaps, with the overlap."""
        first = int((begin - t0) / width)
        last = int((end - t0) / width)
        for index in range(max(first, 0), min(last, n_buckets - 1) + 1):
            bucket = buckets[index]
            overlap = min(end, bucket.end_ns) - max(begin, bucket.start_ns)
            if overlap > 0:
                yield bucket, overlap

    open_begins: Dict[int, List[float]] = {}
    txn_ns: List[float] = []
    stall_durations: List[float] = []
    for event in timed:
        ph = event.get("ph")
        ts_ns = event["ts"] * 1000.0
        name = event.get("name", "")
        cat = event.get("cat", "")
        if cat == "wq":
            bucket = bucket_of(ts_ns)
            if name == "counter_append":
                bucket.counter_appends += 1
            elif name == "data_append":
                bucket.data_appends += 1
            elif name == "cwc_coalesce":
                bucket.coalesced += 1
            elif name == "full_stall":
                dur_ns = event.get("dur", 0.0) * 1000.0
                stall_durations.append(dur_ns)
                for phase, overlap in overlaps(ts_ns, ts_ns + dur_ns):
                    phase.stall_ns += overlap
        elif cat == "txn" and name == "txn":
            txn_ns.append(event.get("dur", 0.0) * 1000.0)
        elif ph == "C" and name == "wq.occupancy":
            value = float(event["args"]["wq.occupancy"])
            bucket = bucket_of(ts_ns)
            bucket.wq_occ_sum += value
            bucket.wq_occ_n += 1
            bucket.wq_occ_max = max(bucket.wq_occ_max, value)
        elif cat == "bank" and ph in ("B", "E") and event["tid"] in banks:
            stack = open_begins.setdefault(event["tid"], [])
            if ph == "B":
                stack.append(ts_ns)
            elif stack:
                bank = banks[event["tid"]]
                for phase, overlap in overlaps(stack.pop(), ts_ns):
                    phase.bank_busy_ns[bank] += overlap
    return TraceReport(
        span_ns=span,
        buckets=buckets,
        total_stall_ns=sum(stall_durations),
        total_counter_appends=sum(b.counter_appends for b in buckets),
        total_data_appends=sum(b.data_appends for b in buckets),
        total_coalesced=sum(b.coalesced for b in buckets),
        txn_ns=sorted(txn_ns),
        stall_durations_ns=sorted(stall_durations),
    )


def _latency_line(label: str, ordered: List[float]) -> str:
    return (
        f"{label}: n={len(ordered)} mean={sum(ordered) / len(ordered):.1f} ns "
        f"p50={percentile(ordered, 50):.1f} p95={percentile(ordered, 95):.1f} "
        f"p99={percentile(ordered, 99):.1f} max={ordered[-1]:.1f}"
    )


def render_report(payload: dict, n_buckets: int = 12) -> str:
    """Human-readable per-phase breakdown of a loaded trace."""
    report = build_report(payload, n_buckets=n_buckets)
    ctr = report.total_counter_appends
    lines = [
        f"trace span: {report.span_ns:.0f} ns in {n_buckets} phases "
        f"({report.span_ns / n_buckets:.0f} ns each)",
        f"totals: stall={report.total_stall_ns:.0f} ns, "
        f"data appends={report.total_data_appends}, "
        f"counter appends={ctr}, "
        f"coalesced={report.total_coalesced} "
        f"({(report.total_coalesced / ctr) if ctr else 0.0:.1%} of counter appends)",
    ]
    if report.txn_ns:
        lines.append(_latency_line("txn latency", report.txn_ns))
    if report.stall_durations_ns:
        lines.append(_latency_line("wq stalls", report.stall_durations_ns))
    lines.append(
        f"{'phase':>5} | {'t_start ns':>12} | {'wq occ':>7} | {'wq max':>6} | "
        f"{'stall ns':>9} | {'ctr app':>7} | {'coal':>5} | {'coal %':>7} | "
        f"{'bank imbal':>10}"
    )
    for index, bucket in enumerate(report.buckets):
        lines.append(
            f"{index:>5} | {bucket.start_ns:>12.0f} | {bucket.wq_occ_mean:>7.1f} | "
            f"{bucket.wq_occ_max:>6.0f} | {bucket.stall_ns:>9.0f} | "
            f"{bucket.counter_appends:>7} | {bucket.coalesced:>5} | "
            f"{bucket.coalesce_rate:>7.1%} | {bucket.bank_imbalance:>10.2f}"
        )
    return "\n".join(lines)


def render_report_file(path: str, n_buckets: int = 12) -> str:
    """Load ``path`` and render its per-phase breakdown."""
    return render_report(load_chrome_trace(path), n_buckets=n_buckets)
