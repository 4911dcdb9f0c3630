"""Tests for the typed event tracer."""

from repro.obs import NULL_TRACER, NullTracer, Tracer
from repro.obs.events import (
    CAT_BANK,
    CAT_CC,
    CAT_CRYPTO,
    CAT_TXN,
    CAT_WQ,
    PH_BEGIN,
    PH_COMPLETE,
    PH_COUNTER,
    PH_END,
)


def test_tracer_is_enabled_null_is_not():
    assert Tracer().enabled
    assert not NULL_TRACER.enabled
    assert isinstance(NULL_TRACER, NullTracer)


def test_wq_append_emits_instant_and_gauge():
    tr = Tracer()
    tr.wq_append(10.0, 0x40, True, 5)
    names = [(e.ph, e.name) for e in tr.events]
    assert ("I", "counter_append") in names
    assert (PH_COUNTER, "wq.occupancy") in names
    assert all(e.cat in (CAT_WQ, "sample") for e in tr.events)


def test_bank_busy_emits_matched_pair():
    tr = Tracer()
    tr.bank_busy(100.0, 461.0, 3, "write")
    begin, end = tr.events
    assert (begin.ph, end.ph) == (PH_BEGIN, PH_END)
    assert begin.track == end.track == "bank.3"
    assert begin.ts == 100.0 and end.ts == 461.0
    assert begin.cat == CAT_BANK


def test_stall_crypto_txn_record_complete_events():
    """Each timed emitter records one X event carrying its duration."""
    tr = Tracer()
    tr.wq_stall(0.0, 250.0, core=1)
    tr.crypto(5.0, 12.0, "otp_write", 0x80)
    tr.txn(1000.0, 5000.0, 0)
    assert [(e.cat, e.name, e.ph, e.ts, e.dur) for e in tr.events] == [
        (CAT_WQ, "full_stall", PH_COMPLETE, 0.0, 250.0),
        (CAT_CRYPTO, "otp_write", PH_COMPLETE, 5.0, 12.0),
        (CAT_TXN, "txn", PH_COMPLETE, 1000.0, 4000.0),
    ]


def test_cc_events():
    tr = Tracer()
    tr.cc_access(1.0, 7, hit=False, update=True)
    tr.cc_evict(1.0, 3, dirty=True)
    tr.cc_fetch(2.0, 0x1000)
    assert [e.name for e in tr.events] == ["miss", "evict", "counter_fetch"]
    assert all(e.cat == CAT_CC for e in tr.events)
