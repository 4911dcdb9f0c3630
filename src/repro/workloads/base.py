"""Workload interface shared by the five microbenchmarks."""

from __future__ import annotations

import abc
import random
from typing import ClassVar, Optional

from repro.common.errors import ConfigError
from repro.txn.transaction import TransactionManager
from repro.workloads.heap import PersistentHeap

#: Registry order matching the paper's figures.
WORKLOAD_NAMES = ("array", "queue", "btree", "hashtable", "rbtree")


class Workload(abc.ABC):
    """One transactional microbenchmark.

    Parameters
    ----------
    manager:
        The transaction manager (which carries the memory domain).
    heap:
        Allocator for the structure's persistent storage.
    request_size:
        Payload bytes one transaction writes (the paper's 256 B / 1 KB /
        4 KB knob).
    footprint:
        Approximate bytes of persistent data the structure should occupy.
        The paper sizes this to one memory bank per program.
    seed:
        Seed for the workload's private RNG (full determinism).
    """

    name: ClassVar[str] = "abstract"

    def __init__(
        self,
        manager: TransactionManager,
        heap: PersistentHeap,
        request_size: int = 1024,
        footprint: int = 1 << 20,
        seed: int = 1,
    ):
        if request_size < 64:
            raise ConfigError(
                f"request_size must be at least one line (64 B), got {request_size}"
            )
        self.manager = manager
        self.domain = manager.domain
        self.heap = heap
        self.request_size = request_size
        self.footprint = footprint
        self.rng = random.Random(seed)
        self._payload_tag = 0
        self._functional = self.domain.functional

    # ------------------------------------------------------------------

    @abc.abstractmethod
    def setup(self) -> None:
        """Allocate persistent storage and build the initial structure."""

    @abc.abstractmethod
    def run_op(self) -> None:
        """Execute one transactional operation."""

    def run_ops(self, n: int) -> None:
        """Execute ``n`` operations."""
        for _ in range(n):
            self.run_op()

    # ------------------------------------------------------------------

    def payload(self, size: int) -> Optional[bytes]:
        """Deterministic per-write content (None in timing-only mode).

        Content is only materialised when the domain is functional:
        timing traces carry no bytes, which keeps generation fast.
        """
        self._payload_tag += 1
        if not self._functional:
            return None
        tag = self._payload_tag
        stamp = tag.to_bytes(8, "little")
        reps = (size + 7) // 8
        return (stamp * reps)[:size]
