"""Typed trace events and the track/category vocabulary.

Events are recorded in simulated nanoseconds on named *tracks* — one per
bank (``bank.N``), one per core (``core.N``), one each for the write queue,
counter cache, and crypto engine — which the Chrome exporter maps to
threads so Perfetto renders one swimlane per hardware resource.

Phases follow the Chrome trace-event format: ``B``/``E`` begin/end pairs
(used for bank occupancy, which is serialised per bank and therefore
always well nested), ``X`` complete events with a duration (crypto
latency, transactions, stalls — these may overlap across cores), ``I``
instants (appends, coalesces, cache hits), and ``C`` counter events
(sampled gauges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

# Event categories (the ``cat`` field of the Chrome format).
CAT_WQ = "wq"
CAT_BANK = "bank"
CAT_CC = "cc"
CAT_CRYPTO = "crypto"
CAT_TXN = "txn"
CAT_SAMPLE = "sample"
#: Harness-level events from the sweep runner (point retries, timeouts,
#: worker deaths, journal resumes) — wall-clock, not simulated time.
CAT_RUNNER = "runner"
#: Timed post-crash recovery (the :mod:`repro.core.recovery_cost` model):
#: per-phase spans and the cost summary, in recovery nanoseconds.
CAT_RECOVERY = "recovery"

# Chrome trace-event phases.
PH_BEGIN = "B"
PH_END = "E"
PH_COMPLETE = "X"
PH_INSTANT = "I"
PH_COUNTER = "C"

# Well-known track names.
TRACK_WQ = "wq"
TRACK_CC = "cc"
TRACK_CRYPTO = "crypto"
TRACK_METRICS = "metrics"
TRACK_RUNNER = "runner"
TRACK_RECOVERY = "recovery"

# Runner event names (CAT_RUNNER instants on TRACK_RUNNER).
RUNNER_EV_RETRY = "point_retry"
RUNNER_EV_TIMEOUT = "point_timeout"
RUNNER_EV_FAILURE = "point_failure"
RUNNER_EV_RESUME = "point_resume"
RUNNER_EV_FALLBACK = "serial_fallback"

# Recovery event names (CAT_RECOVERY on TRACK_RECOVERY): one ``X`` span
# per recovery phase (rsr-resume, counter-scan, trial-decrypt, log-scan,
# log-replay) and a closing instant carrying every cost counter.
RECOVERY_EV_PHASE = "recovery_phase"
RECOVERY_EV_SUMMARY = "recovery_summary"


def bank_track(index: int) -> str:
    """Track name of bank ``index``."""
    return f"bank.{index}"


def core_track(core: int) -> str:
    """Track name of core ``core``."""
    return f"core.{core}"


@dataclass
class TraceEvent:
    """One recorded event, timestamped in simulated nanoseconds."""

    cat: str
    name: str
    track: str
    ts: float
    ph: str = PH_INSTANT
    #: Duration in ns; meaningful for ``X`` (complete) events only.
    dur: float = 0.0
    args: Optional[Dict[str, Any]] = field(default=None)
