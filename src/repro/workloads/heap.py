"""A bump allocator over the persistent address space.

Workloads and the log region allocate from one :class:`PersistentHeap`.
Allocation is deliberately simple — contiguous, line-aligned bump
allocation — because that is exactly the paper's premise about operating
systems giving applications contiguous physical regions (Section 3.3):
consecutive allocations land in consecutive pages and therefore adjacent
banks.
"""

from __future__ import annotations

from repro.common.address import CACHE_LINE_SIZE, PAGE_SIZE
from repro.common.errors import SimulationError


class PersistentHeap:
    """Line-aligned bump allocator over ``[base, base + capacity)``."""

    def __init__(self, capacity: int, base: int = 0):
        if capacity <= 0:
            raise SimulationError("heap capacity must be positive")
        self.base = base
        self.capacity = capacity
        self._cursor = base

    @property
    def end(self) -> int:
        return self.base + self.capacity

    @property
    def free(self) -> int:
        return self.end - self._cursor

    def alloc(self, nbytes: int, align: int = CACHE_LINE_SIZE) -> int:
        """Reserve ``nbytes`` aligned to ``align``; returns the address."""
        if nbytes <= 0:
            raise SimulationError(f"allocation of {nbytes} bytes")
        if align <= 0 or (align & (align - 1)):
            raise SimulationError(f"alignment must be a power of two, got {align}")
        start = (self._cursor + align - 1) & ~(align - 1)
        if start + nbytes > self.end:
            raise SimulationError(
                f"heap exhausted: need {nbytes} at {start:#x}, end {self.end:#x}"
            )
        self._cursor = start + nbytes
        return start

    def alloc_lines(self, n_lines: int) -> int:
        """Reserve ``n_lines`` whole cache lines."""
        return self.alloc(n_lines * CACHE_LINE_SIZE, align=CACHE_LINE_SIZE)

    def alloc_pages(self, n_pages: int) -> int:
        """Reserve ``n_pages`` whole pages, page-aligned."""
        return self.alloc(n_pages * PAGE_SIZE, align=PAGE_SIZE)
