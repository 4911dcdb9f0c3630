"""Generic set-associative SRAM cache with LRU replacement.

The cache tracks line *presence* and *dirtiness* keyed by line index.
Payloads are not stored (see :mod:`repro.cache`). The same class backs the
CPU's L1/L2/L3 and the memory controller's counter cache.

Sets are ``dict`` instances whose insertion order doubles as the LRU stack
(Python dicts preserve insertion order; re-inserting moves a key to the
most-recently-used position in O(1)).

This class is on the per-op critical path (three lookups per load/store),
so it is written for speed: ``__slots__`` keeps attribute access on the
fast path, stat keys are prebuilt tuples bumped directly in the shared
``Stats.raw()`` dict, and the evicted-line record is a NamedTuple rather
than a dataclass.
"""

from __future__ import annotations

from typing import Dict, Iterator, NamedTuple, Optional

from repro.common.config import CacheConfig
from repro.common.stats import Stats


class EvictedLine(NamedTuple):
    """A line pushed out of a cache by a fill."""

    line: int
    dirty: bool


class SetAssociativeCache:
    """An LRU set-associative tag store.

    Parameters
    ----------
    config:
        Geometry (size, associativity, line size, latency).
    stats:
        Shared statistics registry.
    name:
        Namespace under which this cache reports stats (e.g. ``"l1"``).
    """

    __slots__ = (
        "config",
        "name",
        "_vals",
        "_n_sets",
        "_assoc",
        "_sets",
        "_k_accesses",
        "_k_hits",
        "_k_misses",
        "_k_evictions",
        "_k_dirty_evictions",
    )

    def __init__(self, config: CacheConfig, stats: Stats, name: str):
        self.config = config
        self.name = name
        self._vals = stats.raw()
        self._n_sets = config.n_sets
        self._assoc = config.assoc
        # set index -> {line: dirty}; dict order is LRU order (oldest first)
        self._sets: list[Dict[int, bool]] = [dict() for _ in range(self._n_sets)]
        # Prebuilt (namespace, counter) keys: raw()[key] += 1 has the exact
        # semantics of stats.inc without the call and tuple allocation.
        self._k_accesses = (name, "accesses")
        self._k_hits = (name, "hits")
        self._k_misses = (name, "misses")
        self._k_evictions = (name, "evictions")
        self._k_dirty_evictions = (name, "dirty_evictions")

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------

    def _set_of(self, line: int) -> Dict[int, bool]:
        return self._sets[line % self._n_sets]

    def contains(self, line: int) -> bool:
        """Presence test without touching LRU state or statistics."""
        return line in self._sets[line % self._n_sets]

    def is_dirty(self, line: int) -> bool:
        """Dirty test without touching LRU state or statistics."""
        return self._sets[line % self._n_sets].get(line, False)

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def resident_lines(self) -> Iterator[int]:
        """Iterate over every resident line (order unspecified)."""
        for cache_set in self._sets:
            yield from cache_set

    def dirty_lines(self) -> Iterator[int]:
        """Iterate over every dirty resident line."""
        for cache_set in self._sets:
            for line, dirty in cache_set.items():
                if dirty:
                    yield line

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def access(self, line: int, write: bool) -> tuple[bool, Optional[EvictedLine]]:
        """Look up ``line``, filling on a miss.

        Returns ``(hit, evicted)`` where ``evicted`` is the victim pushed
        out by the fill (``None`` on a hit or when the set had room). A
        write marks the line dirty; a read fill inserts it clean.
        """
        cache_set = self._sets[line % self._n_sets]
        vals = self._vals
        vals[self._k_accesses] += 1
        if line in cache_set:
            vals[self._k_hits] += 1
            dirty = cache_set.pop(line) or write
            cache_set[line] = dirty  # move to MRU
            return True, None

        vals[self._k_misses] += 1
        evicted = self._fill(cache_set, line, write)
        return False, evicted

    def _fill(
        self, cache_set: Dict[int, bool], line: int, dirty: bool
    ) -> Optional[EvictedLine]:
        evicted = None
        if len(cache_set) >= self._assoc:
            victim_line = next(iter(cache_set))  # LRU = oldest insertion
            victim_dirty = cache_set.pop(victim_line)
            evicted = EvictedLine(victim_line, victim_dirty)
            vals = self._vals
            vals[self._k_evictions] += 1
            if victim_dirty:
                vals[self._k_dirty_evictions] += 1
        cache_set[line] = dirty
        return evicted

    def fill(self, line: int, dirty: bool = False) -> Optional[EvictedLine]:
        """Insert ``line`` without counting an access (e.g. inclusive fill)."""
        cache_set = self._sets[line % self._n_sets]
        if line in cache_set:
            cache_set[line] = cache_set.pop(line) or dirty
            return None
        return self._fill(cache_set, line, dirty)

    def mark_dirty(self, line: int) -> bool:
        """Set the dirty bit of a resident line; returns False if absent."""
        cache_set = self._set_of(line)
        if line not in cache_set:
            return False
        cache_set.pop(line)
        cache_set[line] = True
        return True

    # ------------------------------------------------------------------
    # Flush / invalidate (clwb, clflush semantics)
    # ------------------------------------------------------------------

    def clean(self, line: int) -> bool:
        """Clear the dirty bit, keeping the line resident (clwb).

        Returns whether the line was dirty (i.e. whether a write-back to
        the next level is required).
        """
        cache_set = self._set_of(line)
        if line not in cache_set:
            return False
        was_dirty = cache_set[line]
        if was_dirty:
            cache_set.pop(line)
            cache_set[line] = False
        return was_dirty

    def invalidate(self, line: int) -> bool:
        """Drop the line entirely (clflush). Returns whether it was dirty."""
        cache_set = self._set_of(line)
        if line not in cache_set:
            return False
        return cache_set.pop(line)

    def flush_all(self) -> list[int]:
        """Invalidate everything; return the dirty lines that were lost.

        Used by crash modelling: a power failure discards all SRAM state,
        and the returned list is exactly the data that never reached the
        durability domain.
        """
        dirty = list(self.dirty_lines())
        for cache_set in self._sets:
            cache_set.clear()
        return dirty
