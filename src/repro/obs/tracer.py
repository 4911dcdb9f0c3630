"""The event tracer and its disabled twin.

Design rules:

* **Injected alongside the Stats object.** Every component that receives
  the shared :class:`~repro.common.stats.Stats` registry also receives a
  tracer, so a single call site records both the aggregate counter and the
  timestamped event.
* **Zero overhead when disabled.** The default is :data:`NULL_TRACER`, a
  singleton whose ``enabled`` flag is False and which has no emitters.
  Every emission site guards with ``if tracer.enabled:``, so a disabled
  run performs at most an attribute load and a branch — and no argument
  construction. Timing results are identical either way because nothing
  in the timing model ever reads tracer state.
* **Typed emitters, not a generic log call.** The tracer's surface is the
  event vocabulary of the simulated machine (``wq_append``, ``bank_busy``,
  ``cc_access``, ``crypto``, ``txn``, ...), which keeps instrumentation
  sites honest about what they record and gives the exporter a stable
  schema.
* **One record.** The event list is the only thing a tracer keeps;
  latency percentiles, per-phase stall time and bank imbalance are
  derived from it afterwards (:mod:`repro.obs.report`).
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.events import (
    CAT_BANK,
    CAT_CC,
    CAT_CRYPTO,
    CAT_SAMPLE,
    CAT_TXN,
    CAT_WQ,
    PH_BEGIN,
    PH_COMPLETE,
    PH_COUNTER,
    PH_END,
    PH_INSTANT,
    TRACK_CC,
    TRACK_CRYPTO,
    TRACK_WQ,
    TraceEvent,
    bank_track,
    core_track,
)


class Tracer:
    """Records the typed events of one simulated machine."""

    enabled = True

    def __init__(self):
        self.events: List[TraceEvent] = []

    # ------------------------------------------------------------------
    # Low-level recording
    # ------------------------------------------------------------------

    def _emit(
        self,
        cat: str,
        name: str,
        track: str,
        ts: float,
        ph: str = PH_INSTANT,
        dur: float = 0.0,
        args: Optional[dict] = None,
    ) -> None:
        self.events.append(
            TraceEvent(cat=cat, name=name, track=track, ts=ts, ph=ph, dur=dur, args=args)
        )

    def _wq_occupancy(self, ts: float, occupancy: int) -> None:
        """The queue depth as a Chrome counter event (Perfetto graphs it)."""
        self._emit(
            CAT_SAMPLE,
            "wq.occupancy",
            TRACK_WQ,
            ts,
            ph=PH_COUNTER,
            args={"value": occupancy},
        )

    # ------------------------------------------------------------------
    # Write queue
    # ------------------------------------------------------------------

    def wq_append(self, ts: float, line: int, is_counter: bool, occupancy: int) -> None:
        """A write entered the ADR-protected queue (the durability point)."""
        self._emit(
            CAT_WQ,
            "counter_append" if is_counter else "data_append",
            TRACK_WQ,
            ts,
            args={"line": line, "occupancy": occupancy},
        )
        self._wq_occupancy(ts, occupancy)

    def wq_issue(
        self, ts: float, line: int, bank: int, is_counter: bool, occupancy: int
    ) -> None:
        """The drain scheduler sent a queued write to its bank."""
        self._emit(
            CAT_WQ,
            "issue",
            TRACK_WQ,
            ts,
            args={
                "line": line,
                "bank": bank,
                "is_counter": is_counter,
                "occupancy": occupancy,
            },
        )
        self._wq_occupancy(ts, occupancy)

    def wq_stall(self, ts: float, dur_ns: float, core: int = 0) -> None:
        """A full queue held up an append for ``dur_ns``."""
        self._emit(
            CAT_WQ,
            "full_stall",
            TRACK_WQ,
            ts,
            ph=PH_COMPLETE,
            dur=dur_ns,
            args={"core": core},
        )

    def wq_coalesce(self, ts: float, line: int, policy: str) -> None:
        """CWC merged a counter write into an already-queued one."""
        self._emit(CAT_WQ, "cwc_coalesce", TRACK_WQ, ts, args={"line": line, "policy": policy})

    # ------------------------------------------------------------------
    # Banks
    # ------------------------------------------------------------------

    def bank_busy(
        self, start: float, end: float, bank: int, kind: str, row_hit: bool = False
    ) -> None:
        """One bank service interval (``kind``: "write" or "read").

        Emitted as a begin/end pair: bank service is serialised per bank,
        so the pairs are always well nested on their track.
        """
        track = bank_track(bank)
        args = {"kind": kind}
        if kind == "read":
            args["row_hit"] = row_hit
        self._emit(CAT_BANK, kind, track, start, ph=PH_BEGIN, args=args)
        self._emit(CAT_BANK, kind, track, end, ph=PH_END)

    # ------------------------------------------------------------------
    # Counter cache
    # ------------------------------------------------------------------

    def cc_access(self, ts: float, page: int, hit: bool, update: bool) -> None:
        """A counter-cache lookup (read path or counter bump)."""
        self._emit(
            CAT_CC,
            "hit" if hit else "miss",
            TRACK_CC,
            ts,
            args={"page": page, "update": update},
        )

    def cc_evict(self, ts: float, page: int, dirty: bool) -> None:
        """A counter line left the cache (dirty ⇒ a write-back follows)."""
        self._emit(CAT_CC, "evict", TRACK_CC, ts, args={"page": page, "dirty": dirty})

    def cc_fetch(self, ts: float, line: int) -> None:
        """A missing counter line was fetched from NVM."""
        self._emit(CAT_CC, "counter_fetch", TRACK_CC, ts, args={"line": line})

    # ------------------------------------------------------------------
    # Crypto engine
    # ------------------------------------------------------------------

    def crypto(self, ts: float, dur_ns: float, kind: str, line: int) -> None:
        """One AES/OTP pipeline occupancy (``kind``: "otp_write"/"otp_read")."""
        self._emit(
            CAT_CRYPTO,
            kind,
            TRACK_CRYPTO,
            ts,
            ph=PH_COMPLETE,
            dur=dur_ns,
            args={"line": line},
        )

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def txn(self, start: float, end: float, core: int) -> None:
        """One completed transaction span on a core's track."""
        self._emit(
            CAT_TXN,
            "txn",
            core_track(core),
            start,
            ph=PH_COMPLETE,
            dur=end - start,
            args={"core": core},
        )


class NullTracer:
    """The disabled tracer: it records nothing and has no emitters.

    Components hold this by default. ``enabled`` is False, so every
    emission site skips its call entirely; ``events`` is an empty list so
    a reader of a disabled tracer sees an empty trace.
    """

    enabled = False
    events: List[TraceEvent] = []


#: The process-wide disabled tracer every component defaults to.
NULL_TRACER = NullTracer()
