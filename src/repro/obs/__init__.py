"""Observability: event tracing, time-series sampling, and exporters.

The simulator's aggregate counters (:mod:`repro.common.stats`) answer *how
much* — how many stalls, how many coalesced counter writes — but the
paper's mechanisms are *dynamic*: the write queue fills in bursts, CWC's
reach depends on how long counter entries linger, XBank's win is a
trajectory of bank occupancy over time. This package records those
dynamics without perturbing them:

* :class:`~repro.obs.tracer.Tracer` — a typed event recorder (write-queue
  append/issue/stall, CWC coalesce, counter-cache hit/miss/evict, per-bank
  busy intervals, OTP/AES latency, transaction spans) injected alongside
  the shared :class:`~repro.common.stats.Stats` object.
* :data:`~repro.obs.tracer.NULL_TRACER` — the disabled default. Every
  component takes a tracer and defaults to this no-op singleton, so an
  un-traced run performs no recording at all (the no-op guarantee tested
  in ``tests/obs/test_noop.py``).
* :class:`~repro.obs.sampler.TimeSeriesSampler` — gauge sampling (WQ
  occupancy, per-bank busy fraction, counter-cache hit rate) on a
  configurable simulated-ns interval.
* :mod:`~repro.obs.export` — Chrome trace-event JSON (open in Perfetto or
  ``chrome://tracing``) and compact JSONL.
* :mod:`~repro.obs.report` — the ``repro trace-report`` analysis: time-
  bucketed stall/occupancy/coalesce/bank-imbalance breakdown of a trace.
* :mod:`~repro.obs.metrics` — the *fleet* layer: a typed
  Counter/Gauge/Histogram registry with label sets and a JSON-able
  snapshot, and a zero-overhead
  :data:`~repro.obs.metrics.NULL_METRICS` default mirroring
  ``NULL_TRACER``. The sweep runner is its only client.

Nothing in the timing model reads tracer state; tracing can never change
a result.
"""

from repro.obs.events import (
    CAT_BANK,
    CAT_CC,
    CAT_CRYPTO,
    CAT_RUNNER,
    CAT_SAMPLE,
    CAT_TXN,
    CAT_WQ,
    TraceEvent,
)
from repro.obs.histogram import Histogram, nearest_rank
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "CAT_BANK",
    "CAT_CC",
    "CAT_CRYPTO",
    "CAT_RUNNER",
    "CAT_SAMPLE",
    "CAT_TXN",
    "CAT_WQ",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "TimeSeriesSampler",
    "TraceEvent",
    "Tracer",
    "nearest_rank",
]
