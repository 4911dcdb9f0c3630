"""Trace export: Chrome trace-event JSON.

The Chrome format (the JSON object form) is what Perfetto and
``chrome://tracing`` load directly: one process for the simulated machine,
one thread per track (core, write queue, counter cache, crypto engine,
bank), timestamps in microseconds. The file holds the event list and
nothing else; ``repro trace-report`` derives its numbers from those
events.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.obs.events import PH_COMPLETE, PH_COUNTER, PH_END
from repro.obs.tracer import Tracer

#: The single simulated-machine process in the Chrome trace.
PID = 1

_TRACK_ORDER = ("core.", "wq", "cc", "crypto", "bank.")


def _track_sort_key(track: str):
    for rank, prefix in enumerate(_TRACK_ORDER):
        if track == prefix or track.startswith(prefix):
            suffix = track[len(prefix):]
            return (rank, int(suffix) if suffix.isdigit() else 0, track)
    return (len(_TRACK_ORDER), 0, track)


def assign_track_ids(tracks) -> Dict[str, int]:
    """Deterministic track -> tid mapping (cores, queue, cc, crypto, banks)."""
    ordered = sorted(set(tracks), key=_track_sort_key)
    return {track: tid for tid, track in enumerate(ordered, start=1)}


def chrome_trace_events(tracer: Tracer) -> List[dict]:
    """The tracer's events in Chrome trace-event dict form.

    Events are ordered by timestamp with ``E`` phases winning ties so
    zero-gap begin/end sequences on one track stay properly nested.
    """
    tids = assign_track_ids(event.track for event in tracer.events)
    out: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": PID,
            "tid": 0,
            "args": {"name": "supermem-sim"},
        }
    ]
    for track, tid in sorted(tids.items(), key=lambda item: item[1]):
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "pid": PID,
                "tid": tid,
                "args": {"name": track},
            }
        )
    ordered = sorted(
        tracer.events, key=lambda e: (e.ts, 0 if e.ph == PH_END else 1)
    )
    for event in ordered:
        record = {
            "name": event.name,
            "cat": event.cat,
            "ph": event.ph,
            # Chrome timestamps are microseconds; the simulator runs in ns.
            "ts": event.ts / 1000.0,
            "pid": PID,
            "tid": tids[event.track],
        }
        if event.ph == PH_COMPLETE:
            record["dur"] = event.dur / 1000.0
        if event.ph == PH_COUNTER:
            # Counter events render as a graph of their args values.
            record["args"] = {event.name: event.args["value"]}
        elif event.args is not None:
            record["args"] = event.args
        out.append(record)
    return out


def chrome_trace_dict(tracer: Tracer) -> dict:
    """The full Chrome-format JSON object."""
    return {"displayTimeUnit": "ns", "traceEvents": chrome_trace_events(tracer)}


def write_chrome_trace(tracer: Tracer, path: str) -> int:
    """Write the Chrome trace JSON; returns the number of trace events."""
    payload = chrome_trace_dict(tracer)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return len(payload["traceEvents"])

