"""Single-core trace simulation.

:class:`Simulator` replays one generated trace under one scheme
configuration and returns a :class:`~repro.sim.metrics.SimResult`.
:func:`simulate_workload` is the one-call convenience used throughout the
experiments and benchmarks: workload name + scheme + knobs -> result.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional

from repro.common.config import SimConfig
from repro.common.stats import Stats
from repro.core.schemes import Scheme, scheme_config
from repro.core.system import SecureMemorySystem
from repro.obs.tracer import NULL_TRACER
from repro.common.errors import SimulationError
from repro.sim.batch import (
    HIERARCHY_STAT_NAMESPACES,
    OutcomeSegment,
    ReplayOutcomes,
    TraceArrays,
    build_arrays,
)
from repro.sim.engine import CoreEngine
from repro.sim.metrics import SimResult
from repro.sim.trace_cache import (
    cached_generate_trace,
    store_trace_outcomes,
    trace_arrays,
    trace_outcomes,
    use_store,
    warmup_trace_arrays,
)
from repro.txn.persist import TraceOp


class Simulator:
    """Replays a trace on a single core over a fresh memory system."""

    def __init__(
        self,
        config: SimConfig,
        counter_organization: str = "split",
        tracer=None,
    ):
        self.config = config
        self.stats = Stats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.system = SecureMemorySystem(
            config,
            stats=self.stats,
            counter_organization=counter_organization,
            tracer=self.tracer,
        )
        self.engine = CoreEngine(
            0, config, self.system, self.stats, tracer=self.tracer
        )
        #: The outcome stream the last :meth:`run` recorded (None when it
        #: was handed one).
        self.recorded_outcomes: Optional[ReplayOutcomes] = None

    def run(
        self,
        ops: Iterable[TraceOp],
        warmup_ops: Iterable[TraceOp] = (),
        arrays: Optional[TraceArrays] = None,
        warmup_arrays: Optional[TraceArrays] = None,
        outcomes: Optional[ReplayOutcomes] = None,
    ) -> SimResult:
        """Replay ``warmup_ops`` (unmeasured) then ``ops`` (measured).

        Pre-decoded ``arrays``/``warmup_arrays`` (from
        :mod:`repro.sim.trace_cache`) skip the decode pass, otherwise the
        op lists are decoded here. ``outcomes`` is a recorded hierarchy
        outcome stream for exactly these arrays under this cache
        geometry; without one, this run first walks the hierarchy to
        record it (kept in :attr:`recorded_outcomes`). Either way the
        timing model is :meth:`CoreEngine.run_batched_replay`.
        :func:`simulate_workload` fetches and stores streams through the
        trace cache.
        """
        if arrays is None:
            arrays = build_arrays(ops if isinstance(ops, (list, tuple)) else list(ops))
        if warmup_arrays is None:
            warmup = (
                warmup_ops
                if isinstance(warmup_ops, (list, tuple))
                else list(warmup_ops)
            )
            warmup_arrays = build_arrays(warmup) if warmup else None
        n_warm = warmup_arrays.n if warmup_arrays is not None else 0
        self.recorded_outcomes = None
        walked = outcomes is None
        if walked:
            outcomes = self.recorded_outcomes = self._record(arrays, warmup_arrays)
        recorded_warm = (
            0 if outcomes.warmup is None else len(outcomes.warmup.kinds)
        )
        if recorded_warm != n_warm or len(outcomes.main.kinds) != arrays.n:
            raise SimulationError(
                "outcome recording does not match the trace "
                f"({recorded_warm}/{len(outcomes.main.kinds)} recorded vs "
                f"{n_warm}/{arrays.n} ops)"
            )
        engine = self.engine
        if n_warm:
            engine.set_measuring(False)
            engine.run_batched_replay(warmup_arrays, outcomes.warmup)
            engine.set_measuring(True)
            self._reset_warmup_stats()
        engine.run_batched_replay(arrays, outcomes.main)
        if not walked:
            # The recorded cache-stat delta stands in for the per-access
            # bumps of the walk that ran elsewhere (warmup included:
            # warmup resets never touch the hierarchy namespaces).
            vals = self.stats.raw()
            for key, delta in outcomes.stat_delta:
                vals[key] += delta
        drain_finish = self.system.drain()
        total = max(engine.clock, drain_finish)
        return SimResult(
            total_time_ns=total,
            txn_latencies=engine.txn_latencies,
            stats=self.stats,
        )

    def _record(
        self,
        arrays: TraceArrays,
        warmup_arrays: Optional[TraceArrays] = None,
    ) -> ReplayOutcomes:
        """Walk this simulator's cache hierarchy over the warmup and the
        measured arrays, returning the recorded outcome stream."""
        raw = self.stats.raw()
        namespaces = HIERARCHY_STAT_NAMESPACES
        base = {
            key: value for key, value in raw.items() if key[0] in namespaces
        }
        record = self.engine.run_batched_record

        def segment(seg_arrays: TraceArrays) -> OutcomeSegment:
            kinds: bytearray = bytearray()
            lats: list = []
            wbs: dict = {}
            record(seg_arrays, kinds, lats, wbs)
            return OutcomeSegment(bytes(kinds), lats, wbs)

        warm = (
            segment(warmup_arrays)
            if warmup_arrays is not None and warmup_arrays.n
            else None
        )
        main = segment(arrays)
        delta = tuple(
            (key, value - base.get(key, 0.0))
            for key, value in raw.items()
            if key[0] in namespaces and value != base.get(key, 0.0)
        )
        return ReplayOutcomes(main, warm, delta)

    def _reset_warmup_stats(self) -> None:
        # Warmup traffic warms caches but should not pollute traffic
        # counters; snapshot-and-subtract would complicate every stat,
        # so instead reset the counters that experiments read (the
        # cache *contents* stay warm — only the statistics reset).
        for namespace in ("wq", "secmem", "nvm", "mc", "cc", "it"):
            for counter, _ in list(self.stats.namespace(namespace).items()):
                self.stats.set(namespace, counter, 0)


def simulate_workload(
    workload: str,
    scheme: Scheme,
    n_ops: int = 200,
    request_size: int = 1024,
    footprint: int = 1 << 20,
    base_config: Optional[SimConfig] = None,
    seed: int = 1,
    warmup_ops: int = 0,
    counter_organization: str = "split",
    tracer=None,
    fidelity: str = "timing",
) -> SimResult:
    """Generate a workload trace and simulate it under ``scheme``.

    This is the standard experiment kernel: the same trace (same seed)
    replayed under different schemes isolates the scheme effect.

    ``fidelity`` selects how much functional work rides along with the
    timing model. The default ``"timing"`` forces ``functional=False``
    (via :class:`SimConfig`'s coupling): traces carry no payloads and no
    pad generation, XOR, or NVM byte image is produced — the historical
    behaviour of this function. ``"full"`` keeps ``functional`` as the
    base config has it (True by default), generating payload-tracking
    traces and running the byte-level crypto path. Both fidelities charge
    identical latencies and count identical stats — asserted bit-for-bit
    by tests/sim/test_fidelity.py.

    Trace generation is memoized per process (:mod:`repro.sim.trace_cache`):
    sweeping several schemes over the same (workload, size, seed) point
    generates the trace once and replays it under each scheme.
    """
    cfg = dataclasses.replace(scheme_config(scheme, base_config), fidelity=fidelity)
    # The config is the single source of truth for the disk tier: a run
    # without a configured store never reads or writes one.
    use_store(cfg.outcome_store)
    trace = cached_generate_trace(
        workload,
        n_ops=n_ops,
        request_size=request_size,
        footprint=footprint,
        seed=seed,
        warmup_ops=warmup_ops,
        track_payloads=cfg.functional,
    )
    sim = Simulator(cfg, counter_organization=counter_organization, tracer=tracer)
    # One decode per process: the arrays live on the cached trace.
    arrays = trace_arrays(trace)
    warmup = warmup_trace_arrays(trace) if trace.warmup_ops else None
    # One cache walk per (trace, cache geometry): the first scheme of a
    # sweep records the hierarchy outcome stream, the rest replay it (the
    # walk is scheme-independent — see repro.sim.batch).
    cache_sig = (cfg.l1, cfg.l2, cfg.l3, cfg.timing)
    outcomes = trace_outcomes(trace, cache_sig)
    result = sim.run(
        trace.ops,
        warmup_ops=trace.warmup_ops,
        arrays=arrays,
        warmup_arrays=warmup,
        outcomes=outcomes,
    )
    if outcomes is None:
        store_trace_outcomes(trace, cache_sig, sim.recorded_outcomes)
    return result
