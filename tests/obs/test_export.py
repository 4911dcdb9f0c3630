"""Chrome trace-event export validity.

The Chrome test is the acceptance gate for ``repro simulate --trace``: a
real SuperMem run must produce a JSON file whose every event carries the
required ``ph``/``ts``/``pid``/``tid``/``name`` keys, whose begin/end
pairs are monotonically consistent per track, and which spans at least the
five event categories (wq, bank, cc, crypto, txn).
"""

import json

import pytest

from repro.core.schemes import Scheme
from repro.obs import Tracer
from repro.obs.export import assign_track_ids, chrome_trace_dict, write_chrome_trace
from repro.sim.simulator import simulate_workload

REQUIRED_KEYS = {"ph", "ts", "pid", "tid", "name"}


@pytest.fixture(scope="module")
def traced_run():
    tracer = Tracer()
    result = simulate_workload(
        "queue", Scheme.SUPERMEM, n_ops=40, request_size=1024, footprint=1 << 20,
        tracer=tracer,
    )
    return tracer, result


def test_chrome_file_is_valid_json_with_required_keys(traced_run, tmp_path):
    tracer, _ = traced_run
    path = tmp_path / "out.json"
    n_events = write_chrome_trace(tracer, str(path))
    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    assert len(events) == n_events > 0
    for event in events:
        assert REQUIRED_KEYS <= set(event), f"missing keys in {event}"


def test_chrome_trace_has_five_event_categories(traced_run):
    tracer, _ = traced_run
    events = chrome_trace_dict(tracer)["traceEvents"]
    cats = {e.get("cat") for e in events if e["ph"] != "M"}
    assert {"wq", "bank", "cc", "crypto", "txn"} <= cats


def test_begin_end_pairs_are_consistent_per_track(traced_run):
    """Every B has a matching later E on the same track, properly nested."""
    tracer, _ = traced_run
    events = chrome_trace_dict(tracer)["traceEvents"]
    depth = {}
    last_ts = {}
    saw_pairs = False
    for event in events:
        if event["ph"] not in ("B", "E"):
            continue
        saw_pairs = True
        key = (event["pid"], event["tid"])
        assert event["ts"] >= last_ts.get(key, float("-inf")), "track not monotonic"
        last_ts[key] = event["ts"]
        if event["ph"] == "B":
            depth[key] = depth.get(key, 0) + 1
        else:
            depth[key] = depth.get(key, 0) - 1
            assert depth[key] >= 0, "E without matching B"
    assert saw_pairs
    assert all(d == 0 for d in depth.values()), "unclosed B events"


def test_timestamps_are_microseconds(traced_run, tmp_path):
    tracer, result = traced_run
    events = chrome_trace_dict(tracer)["traceEvents"]
    max_ts = max(e["ts"] + e.get("dur", 0.0) for e in events)
    assert max_ts <= result.total_time_ns / 1000.0 + 1e-6


def test_thread_metadata_names_every_track(traced_run):
    tracer, _ = traced_run
    events = chrome_trace_dict(tracer)["traceEvents"]
    named_tids = {
        e["tid"] for e in events if e["ph"] == "M" and e["name"] == "thread_name"
    }
    used_tids = {e["tid"] for e in events if e["ph"] != "M"}
    assert used_tids <= named_tids
    names = {
        e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert "wq" in names
    assert any(name.startswith("bank.") for name in names)
    assert "core.0" in names


def test_track_id_assignment_is_deterministic():
    tracks = ["bank.10", "bank.2", "wq", "core.1", "core.0", "cc", "crypto"]
    ids = assign_track_ids(tracks)
    assert ids == assign_track_ids(reversed(tracks))
    assert ids["core.0"] < ids["core.1"] < ids["wq"] < ids["cc"]
    assert ids["crypto"] < ids["bank.2"] < ids["bank.10"]


# ----------------------------------------------------------------------
# Edge cases: empty / degenerate traces must still export valid files
# ----------------------------------------------------------------------


def test_empty_trace_exports_valid_chrome_json(tmp_path):
    """A tracer that never recorded anything still writes a loadable file."""
    tracer = Tracer()
    path = tmp_path / "empty.json"
    n_events = write_chrome_trace(tracer, str(path))
    payload = json.loads(path.read_text())
    assert n_events == len(payload["traceEvents"])
    # Only metadata (process/thread naming) — no recorded events.
    assert all(e["ph"] == "M" for e in payload["traceEvents"])
    assert payload["displayTimeUnit"] == "ns"
    assert set(payload) == {"displayTimeUnit", "traceEvents"}


def test_single_event_export_has_valid_fields():
    """One instant at ts=0 (a zero-duration run) exports validly."""
    from repro.obs.events import CAT_WQ, TRACK_WQ, TraceEvent

    tracer = Tracer()
    tracer.events.append(
        TraceEvent(cat=CAT_WQ, name="data_append", track=TRACK_WQ, ts=0.0)
    )
    payload = chrome_trace_dict(tracer)
    events = [e for e in payload["traceEvents"] if e["ph"] != "M"]
    assert len(events) == 1
    event = events[0]
    assert REQUIRED_KEYS <= set(event)
    assert event["ts"] == 0.0 and event["ph"] == "I"
    # The track still gets its thread_name metadata record.
    metadata = [e for e in payload["traceEvents"] if e["ph"] == "M"]
    assert any(e["args"]["name"] == TRACK_WQ for e in metadata)


def test_zero_duration_complete_event_is_exported():
    """An X event with dur=0 keeps its (zero) duration."""
    from repro.obs.events import CAT_TXN, PH_COMPLETE, TraceEvent, core_track

    tracer = Tracer()
    tracer.events.append(
        TraceEvent(
            cat=CAT_TXN, name="txn", track=core_track(0), ts=100.0,
            ph=PH_COMPLETE, dur=0.0,
        )
    )
    chrome = [
        e for e in chrome_trace_dict(tracer)["traceEvents"] if e["ph"] == "X"
    ]
    assert chrome[0]["dur"] == 0.0
