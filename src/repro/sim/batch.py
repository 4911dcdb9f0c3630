"""Flat op arrays and recorded cache-walk outcomes for trace replay.

A generated trace is a list of small tuples — friendly to build, hostile
to replay: every op pays tuple indexing, a bound-method call, and a
``len(op) > 2`` payload probe. This module decodes a trace *once* into
parallel flat arrays — one ``bytes`` of op kinds plus one list of per-op
arguments (line index, compute nanoseconds, or transaction id) and an
optional payload list — that the two passes (a recorder,
:meth:`~repro.sim.engine.CoreEngine.run_batched_record` single-core or
:func:`~repro.sim.multicore.record_private_walk` multicore, then the
timing loop :meth:`~repro.sim.engine.CoreEngine.replay`) consume with
every per-op attribute lookup hoisted out of the inner loop.

The decode is cached alongside the trace by :mod:`repro.sim.trace_cache`
(one decode per process per trace, like trace generation itself), so a
seven-scheme sweep over one (workload, size, seed) point decodes once and
replays the same arrays seven times.

Decoding is purely structural — no timing state — so sharing
:class:`TraceArrays` across simulator instances is as sound as sharing
the trace tuples themselves. Replay through the arrays is **bit-identical**
to walking the hierarchy op by op next to the memory calls (the per-op
oracle in ``tests/sim/engine_oracle.py``; ``tests/sim/test_batch.py`` and
``tests/sim/test_multicore_differential.py`` compare them).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.common.errors import SimulationError
from repro.txn.persist import (
    OP_CLWB,
    OP_COMPUTE,
    OP_FENCE,
    OP_LOAD,
    OP_STORE,
    OP_TXN_BEGIN,
    OP_TXN_END,
    TraceOp,
)

# The batched loop compares raw byte values against these constants and
# relies on load/store being the two smallest opcodes (one `<=` covers
# both). Fail at import time if the encoding ever shifts.
if (OP_LOAD, OP_STORE, OP_CLWB, OP_FENCE, OP_TXN_BEGIN, OP_TXN_END, OP_COMPUTE) != (
    0,
    1,
    2,
    3,
    4,
    5,
    6,
):  # pragma: no cover - a trace-encoding change must update batch.py too
    raise ImportError("trace opcode encoding changed; update repro.sim.batch")


class TraceArrays:
    """One trace decoded into parallel flat arrays.

    ``kinds``
        ``bytes`` of length ``n`` — the opcode of each op (indexing a
        ``bytes`` yields a small int with no allocation).
    ``args``
        Per-op argument: line index for load/store/clwb, nanoseconds for
        compute, transaction id for txn markers, 0 for sfence.
    ``payloads``
        ``None`` for timing traces; for functional traces a list of
        length ``n`` holding each clwb's payload (or ``None``), exactly
        what the per-op ``op[2] if len(op) > 2 else None`` probe yields.
    """

    __slots__ = ("kinds", "args", "payloads", "n")

    def __init__(
        self,
        kinds: bytes,
        args: List[object],
        payloads: Optional[List[Optional[bytes]]],
        n: int,
    ):
        self.kinds = kinds
        self.args = args
        self.payloads = payloads
        self.n = n


# ----------------------------------------------------------------------
# Hierarchy outcome streams
# ----------------------------------------------------------------------
#
# The CPU cache walk (:meth:`repro.cache.hierarchy.CacheHierarchy.access`
# / ``clwb``) of one core is a pure function of the op sequence and the
# cache geometry: SRAM hit/miss decisions, fills, evictions and dirty bits
# never depend on memory-system timing, and the seven schemes of a sweep
# share one cache geometry. A sweep therefore replays the *same* walk
# once per scheme. Recording the walk's outcomes once lets every replay of
# the same (trace, geometry) skip the walk and charge the recorded
# outcomes, which is bit-identical by construction.
#
# Single-core, the whole L1/L2/L3 walk is recorded: per-op resolved kind,
# SRAM latency, write-back victims, plus the total cache-stat delta.
# Resolved kinds (``BK_*``), ordered so the common cases compare first:
BK_MEM_HIT = 0  #: load/store, SRAM hit, no memory write-back
BK_CLWB_DIRTY = 1  #: clwb of a dirty line (persist required)
BK_MEM_MISS = 2  #: load/store, missed all levels, no write-back
BK_FENCE = 3
BK_TXN_BEGIN = 4
BK_TXN_END = 5
BK_COMPUTE = 6
BK_CLWB_CLEAN = 7  #: clwb of a clean/absent line (no memory traffic)
BK_MEM_HIT_WB = 8  #: hit that pushed dirty victim(s) out of the LLC
BK_MEM_MISS_WB = 9  #: miss that pushed dirty victim(s) out of the LLC

#: Codes of the ops no cache walk sees, in both kinds of recording.
BK_OF_OP = {
    OP_FENCE: BK_FENCE,
    OP_TXN_BEGIN: BK_TXN_BEGIN,
    OP_TXN_END: BK_TXN_END,
    OP_COMPUTE: BK_COMPUTE,
}
#
# Multicore, the L3 is shared and its state depends on how the cores
# interleave, so only a core's private L1/L2 walk is recorded, with the
# L3 an event sink (:class:`repro.cache.hierarchy.L3EventSink`). Private
# kinds (``PK_*``) name the L1/L2 outcome and the L3 events the replay
# must apply live; the SRAM latency is implied by the kind (one of three
# sums), so the recording keeps no per-op floats. Fences, compute and txn
# markers keep their ``BK_*`` codes. Private walks stay in process.
PK_L1_HIT = 10  #: load/store, L1 hit (latency L1)
PK_L2_HIT = 11  #: load/store, L2 hit, nothing pushed into the L3 (L1+L2)
PK_L3_LOOKUP = 12  #: load/store missed L1/L2: look it up in the L3 (L1+L2+L3)
PK_CLWB_DIRTY = 13  #: clwb with a dirty private copy: clean the L3, persist
PK_CLWB = 14  #: clwb with no dirty private copy: persist iff the L3's was
PK_L2_HIT_PUSH = 15  #: L2 hit that pushed dirty line(s) into the L3
PK_L3_LOOKUP_PUSH = 16  #: L3 lookup after pushing dirty line(s) into it


class OutcomeSegment:
    """The recorded hierarchy outcomes of one op segment.

    ``kinds``
        ``bytes`` of ``BK_*`` (single-core) or ``PK_*`` (private walk)
        codes, index-aligned with the segment's :class:`TraceArrays`.
    ``lats``
        Per-op SRAM walk latency (meaningful for loads/stores; 0.0
        elsewhere); ``None`` for a private walk, whose kinds imply it.
    ``wbs``
        Sparse map ``op index -> tuple of lines`` the op pushed out of the
        recorded levels: the memory write-backs of the rare ``BK_*_WB``
        ops, or the dirty lines a ``PK_*_PUSH`` op pushed into the L3.
    """

    __slots__ = ("kinds", "lats", "wbs")

    def __init__(self, kinds: bytes, lats: Optional[List[float]], wbs: dict):
        self.kinds = kinds
        self.lats = lats
        self.wbs = wbs


class ReplayOutcomes:
    """One full recording: warmup segment, measured segment, stat delta.

    ``stat_delta`` is the exact delta the hierarchy applied to the cache
    stat namespaces (``l1``/``l2``/``l3``/``hierarchy``) over the whole
    run (warmup + measured); replays apply it in one shot instead of
    bumping per access. A private walk's delta covers only what its
    L1/L2 decided; the L3 counters, memory write-backs and L3-only dirty
    clwbs are counted as the replay applies the L3 events. Keyed per
    cache geometry by :func:`repro.sim.trace_cache.trace_outcomes`.
    """

    __slots__ = ("main", "warmup", "stat_delta")

    def __init__(
        self,
        main: OutcomeSegment,
        warmup: Optional[OutcomeSegment],
        stat_delta: tuple,
    ):
        self.main = main
        self.warmup = warmup
        self.stat_delta = stat_delta


#: Stat namespaces owned exclusively by the (single-core) cache
#: hierarchy; the recorded ``stat_delta`` covers exactly these.
HIERARCHY_STAT_NAMESPACES = ("l1", "l2", "l3", "hierarchy")


def build_arrays(ops: Sequence[TraceOp]) -> TraceArrays:
    """Decode one op sequence into :class:`TraceArrays`.

    Unknown opcodes raise :class:`~repro.common.errors.SimulationError`
    here — at decode time — so the replay loops never see one.
    """
    n = len(ops)
    kinds = bytearray(n)
    args: List[object] = [0] * n
    payloads: Optional[List[Optional[bytes]]] = None
    for i, op in enumerate(ops):
        kind = op[0]
        if not (isinstance(kind, int) and OP_LOAD <= kind <= OP_COMPUTE):
            raise SimulationError(f"unknown trace op {op!r}")
        kinds[i] = kind
        if len(op) > 1:
            args[i] = op[1]
        if kind == OP_CLWB and len(op) > 2 and op[2] is not None:
            if payloads is None:
                payloads = [None] * n
            payloads[i] = op[2]
    return TraceArrays(bytes(kinds), args, payloads, n)
