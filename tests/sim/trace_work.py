"""Count the trace work runs pay for, by wrapping production functions.

The trace cache keeps no counters. A test of trace reuse wraps what the
cache and the simulators call instead, as the benchmark's layer tracer
does: ``generate_trace`` and ``build_arrays`` where the trace cache
calls them, and ``store_trace_outcomes`` where the single- and
multi-core simulators call it. Each count is then work a run did, not a
lookup: a trace generated, a replay array decoded, a cache walk
recorded.
"""

from collections import Counter

from repro.sim import multicore, simulator, trace_cache


def count_trace_work(monkeypatch) -> Counter:
    """Install the counting wrappers; ``monkeypatch`` removes them.

    Returns the counter the wrappers bump under ``"generated"``,
    ``"decoded"`` and ``"recorded"``.
    """
    work = Counter()

    def counted(owner, name, key):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            work[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(trace_cache, "generate_trace", "generated")
    counted(trace_cache, "build_arrays", "decoded")
    counted(simulator, "store_trace_outcomes", "recorded")
    counted(multicore, "store_trace_outcomes", "recorded")
    return work
