"""Wiring helpers: workload -> trace, and the standard experiment setup.

:func:`generate_trace` builds the full stack for one program — heap, log
region, trace domain, transaction manager, workload — runs the setup phase
(discarded), runs ``n_ops`` measured operations, and returns the op
stream plus metadata. The log region is allocated *first*, so logs and
data live in different pages (different banks), matching how a real
allocator would lay out a transactional application.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Type

from repro.common.errors import ConfigError
from repro.txn.log import LogRegion
from repro.txn.persist import TraceDomain, TraceOp
from repro.txn.transaction import TransactionManager
from repro.workloads.array import ArrayWorkload
from repro.workloads.base import Workload
from repro.workloads.btree import BTreeWorkload
from repro.workloads.hashtable import HashTableWorkload
from repro.workloads.heap import PersistentHeap
from repro.workloads.queue import QueueWorkload
from repro.workloads.rbtree import RBTreeWorkload

_REGISTRY: Dict[str, Type[Workload]] = {
    cls.name: cls
    for cls in (
        ArrayWorkload,
        QueueWorkload,
        BTreeWorkload,
        HashTableWorkload,
        RBTreeWorkload,
    )
}

#: Pages reserved for the undo log of one program.
LOG_PAGES = 16


def workload_class(name: str) -> Type[Workload]:
    """Look up a workload class by its paper name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown workload {name!r}; expected one of {sorted(_REGISTRY)}"
        ) from None


def build_workload(
    name: str,
    manager: TransactionManager,
    heap: PersistentHeap,
    request_size: int = 1024,
    footprint: int = 1 << 20,
    seed: int = 1,
) -> Workload:
    """Construct and set up one workload instance."""
    workload = workload_class(name)(
        manager,
        heap,
        request_size=request_size,
        footprint=footprint,
        seed=seed,
    )
    workload.setup()
    return workload


@dataclass
class GeneratedTrace:
    """A measured op stream plus the context that produced it."""

    ops: List[TraceOp]
    workload_name: str
    request_size: int
    footprint: int
    n_ops: int
    seed: int
    #: Ops emitted during setup/warmup (replayed unmeasured to warm caches).
    warmup_ops: List[TraceOp] = field(default_factory=list)
    #: Lazily-built flat replay arrays (:class:`repro.sim.batch.TraceArrays`)
    #: for ``ops``/``warmup_ops``. Populated by
    #: :func:`repro.sim.trace_cache.trace_arrays` so one decode serves
    #: every replay of a cached trace; excluded from equality (pure
    #: derived data).
    replay_arrays: object = field(default=None, repr=False, compare=False)
    warmup_replay_arrays: object = field(default=None, repr=False, compare=False)
    #: Lazily-recorded hierarchy outcome streams
    #: (:class:`repro.sim.batch.ReplayOutcomes`) keyed by cache geometry;
    #: populated by :func:`repro.sim.trace_cache.store_trace_outcomes`.
    #: The CPU cache walk is scheme-independent, so one recording serves
    #: every scheme of a sweep. Pure derived data, excluded from equality.
    replay_outcomes: object = field(default=None, repr=False, compare=False)


def generate_trace(
    name: str,
    n_ops: int,
    request_size: int = 1024,
    footprint: int = 1 << 20,
    heap_base: int = 0,
    heap_capacity: int | None = None,
    seed: int = 1,
    warmup_ops: int = 0,
    track_payloads: bool = False,
) -> GeneratedTrace:
    """Generate the trace of one program running ``n_ops`` transactions.

    Parameters
    ----------
    name:
        Workload name (``array``/``queue``/``btree``/``hashtable``/``rbtree``).
    n_ops:
        Measured transactional operations.
    request_size:
        Transaction request size in bytes (paper: 256/1024/4096).
    footprint:
        Target persistent footprint of the structure.
    heap_base / heap_capacity:
        Region of the physical space this program owns (multi-program runs
        give each program its own region). Capacity defaults to
        ``4 * footprint`` for allocator headroom (trees allocate nodes
        beyond the steady-state footprint).
    warmup_ops:
        Operations run before measurement begins; their ops are returned
        separately so the simulator can warm caches without timing them.
    track_payloads:
        Attach line payloads to CLWB ops (functional traces).
    """
    if heap_capacity is None:
        heap_capacity = 4 * footprint + (LOG_PAGES + 16) * 4096
    heap = PersistentHeap(capacity=heap_capacity, base=heap_base)
    log_base = heap.alloc_pages(LOG_PAGES)
    log = LogRegion(log_base, LOG_PAGES * 4096)
    domain = TraceDomain(track_payloads=track_payloads)
    manager = TransactionManager(domain, log)
    workload = build_workload(
        name,
        manager,
        heap,
        request_size=request_size,
        footprint=footprint,
        seed=seed,
    )
    domain.take_ops()  # discard setup traffic
    workload.run_ops(warmup_ops)
    warmup = domain.take_ops()
    workload.run_ops(n_ops)
    return GeneratedTrace(
        ops=domain.take_ops(),
        workload_name=name,
        request_size=request_size,
        footprint=footprint,
        n_ops=n_ops,
        seed=seed,
        warmup_ops=warmup,
    )
