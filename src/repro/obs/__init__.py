"""Observability: event tracing, the Chrome export, and trace analysis.

The simulator's aggregate counters (:mod:`repro.common.stats`) answer *how
much* — how many stalls, how many coalesced counter writes — but the
paper's mechanisms are *dynamic*: the write queue fills in bursts, CWC's
reach depends on how long counter entries linger, XBank's win is a
trajectory of bank occupancy over time. This package records those
dynamics without perturbing them:

* :class:`~repro.obs.tracer.Tracer` — a typed event recorder (write-queue
  append/issue/stall/occupancy, CWC coalesce, counter-cache
  hit/miss/evict, per-bank busy intervals, OTP/AES latency, transaction
  spans) injected alongside the shared :class:`~repro.common.stats.Stats`
  object. Its event list is the only record it keeps.
* :data:`~repro.obs.tracer.NULL_TRACER` — the disabled default. Every
  component takes a tracer and defaults to this singleton, so an
  un-traced run performs no recording at all (the no-op guarantee tested
  in ``tests/obs/test_noop.py``).
* :mod:`~repro.obs.export` — Chrome trace-event JSON (open in Perfetto or
  ``chrome://tracing``).
* :mod:`~repro.obs.report` — the ``repro trace-report`` analysis: exact
  transaction and stall percentiles plus a time-bucketed
  stall/occupancy/coalesce/bank-imbalance breakdown, all derived from
  the events.
* :func:`~repro.obs.histogram.nearest_rank` — the percentile definition
  shared with :class:`~repro.sim.metrics.SimResult`.

Everything here observes one simulated machine. The sweep runner's own
accounting (resumes, retries, timeouts, store lookups) lives on
:class:`~repro.experiments.runner.RunnerReport` and its stderr line.

Nothing in the timing model reads tracer state; tracing can never change
a result.
"""

from repro.obs.events import (
    CAT_BANK,
    CAT_CC,
    CAT_CRYPTO,
    CAT_SAMPLE,
    CAT_TXN,
    CAT_WQ,
    TraceEvent,
)
from repro.obs.histogram import nearest_rank
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "CAT_BANK",
    "CAT_CC",
    "CAT_CRYPTO",
    "CAT_SAMPLE",
    "CAT_TXN",
    "CAT_WQ",
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "nearest_rank",
]
