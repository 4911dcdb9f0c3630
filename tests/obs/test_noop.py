"""The no-op guarantee: tracing must never change a result.

Two directions:

* a run built with the disabled :data:`NULL_TRACER` (the default) is
  bit-identical — counters and ``total_time_ns`` — to a run built with no
  tracer argument at all;
* an *enabled* tracer observes but never perturbs: the traced run's
  timing and counters equal the untraced run's, on every evaluated
  scheme at both fidelities, and the SuperMem and SuperMem+BMT event
  streams match pinned digests.
"""

import hashlib
import json

import pytest

from repro.core.schemes import EVALUATED_SCHEMES, Scheme
from repro.obs import NULL_TRACER, Tracer
from repro.sim.simulator import simulate_workload

KWARGS = dict(
    n_ops=40, request_size=1024, footprint=1 << 20, seed=3
)

#: sha256 of the traced event stream (sampler on, 1 us interval) of this
#: file's point, per scheme. Any fidelity gives the same stream.
EVENT_STREAM_DIGESTS = {
    Scheme.SUPERMEM: (
        "551fa047125a77b56f49d38160fe5dc8d4b386a6026b7b5f19affe44fe08b55a"
    ),
    Scheme.SUPERMEM_BMT: (
        "044e722c1a67e695f210dbd65e0997c1d02b2ec9886995a4e8d0787ce42355da"
    ),
}


def _run(tracer=None, scheme=Scheme.SUPERMEM, fidelity="timing"):
    return simulate_workload(
        "hashtable", scheme, tracer=tracer, fidelity=fidelity, **KWARGS
    )


def _event_digest(events):
    rows = [[e.cat, e.name, e.track, e.ts, e.ph, e.dur, e.args] for e in events]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def test_disabled_tracer_is_bit_identical_to_no_tracer():
    baseline = _run()
    disabled = _run(tracer=NULL_TRACER)
    assert disabled.total_time_ns == baseline.total_time_ns
    assert disabled.txn_latencies == baseline.txn_latencies
    assert disabled.stats.snapshot() == baseline.stats.snapshot()


@pytest.mark.parametrize("fidelity", ["timing", "full"])
@pytest.mark.parametrize("scheme", EVALUATED_SCHEMES, ids=lambda s: s.value)
def test_enabled_tracer_does_not_perturb_results(scheme, fidelity):
    baseline = _run(scheme=scheme, fidelity=fidelity)
    tracer = Tracer(sample_interval_ns=1000.0)
    traced = _run(tracer=tracer, scheme=scheme, fidelity=fidelity)
    assert traced.total_time_ns == baseline.total_time_ns
    assert traced.txn_latencies == baseline.txn_latencies
    assert traced.stats.snapshot() == baseline.stats.snapshot()
    assert len(tracer.events) > 0  # and it actually recorded
    assert tracer.sampler.rows  # the sampler ticked too
    if scheme in EVENT_STREAM_DIGESTS:
        assert _event_digest(tracer.events) == EVENT_STREAM_DIGESTS[scheme]


def test_tracer_event_totals_match_aggregate_counters():
    """The event stream and the Stats registry tell the same story."""
    tracer = Tracer()
    result = _run(tracer=tracer)
    appends = [
        e for e in tracer.events if e.name in ("data_append", "counter_append")
    ]
    coalesces = [e for e in tracer.events if e.name == "cwc_coalesce"]
    stalls = [e for e in tracer.events if e.name == "full_stall"]
    assert len(appends) == result.nvm_writes
    assert len(coalesces) == result.coalesced_counter_writes
    assert len(stalls) == result.stats.get("wq", "full_stalls")
    assert sum(e.dur for e in stalls) == result.wq_stall_ns
    assert tracer.histograms["txn_latency_ns"].n == result.n_txns
