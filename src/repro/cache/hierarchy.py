"""Three-level CPU cache hierarchy with persistence instructions.

Models the paper's L1 (32 KB) / L2 (512 KB) / shared L3 (4 MB) stack as a
mostly-inclusive write-back, write-allocate hierarchy:

* a fill at level *N* also fills levels above it;
* a dirty victim evicted from L1/L2 is installed dirty in the next level;
* a dirty victim evicted from L3 becomes an NVM write-back (which, in an
  encrypted NVM, triggers the whole counter machinery like any other
  write — evictions are not exempt from encryption);
* ``clwb`` writes the newest dirty copy back toward memory and *cleans*
  the cached copies without invalidating them (matching the instruction the
  paper uses for persistence);
* ``clflush`` additionally invalidates.

For the multi-core experiments, each core owns a private L1/L2 while L3
is shared. A core's L1/L2 state never depends on the L3 (victims only
move down, and the refills after an L3 hit land on lines the miss-fill
already put at MRU), so :mod:`repro.sim.multicore` records each core's
private walk once with an :class:`L3EventSink` in the L3's place and
applies the recorded L3 events to the real shared L3 as the cores
interleave.

The walk runs once per load/store, three lookups deep, so the class is
``__slots__``-ed and :meth:`access` returns a plain ``(hit_level,
latency_ns, writebacks)`` tuple without allocating a result object (the
write-back list is lazily allocated — the common case is none).
:meth:`read`/:meth:`write` wrap the same walk in a :class:`ReadOutcome`
for callers that prefer names.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.common.config import CacheConfig, TimingConfig
from repro.common.stats import Stats
from repro.cache.sram import SetAssociativeCache

#: Shared empty write-back container returned by the fast walk when no
#: dirty line left the last level — callers only iterate it, never mutate.
_EMPTY_WB: Tuple[int, ...] = ()


def walk_latencies_ns(
    l1: CacheConfig, l2: CacheConfig, l3: CacheConfig, timing: TimingConfig
) -> Tuple[float, ...]:
    """SRAM latency of a walk that stops at L1, at L2, or at L3 (hit or miss).

    Running sums of the per-level lookup latencies, added in walk order:
    the exact floats :meth:`CacheHierarchy.access` charges, and the ones
    the replay of a recorded private walk charges by its op codes.
    """
    total = 0.0
    sums = []
    for level in (l1, l2, l3):
        total += timing.cycles_to_ns(level.latency_cycles)
        sums.append(total)
    return tuple(sums)


class ReadOutcome(NamedTuple):
    """Result of driving one load or store through the hierarchy.

    Attributes
    ----------
    hit_level:
        1, 2 or 3 for an SRAM hit; ``None`` when the request must go to
        memory.
    latency_ns:
        Total SRAM lookup latency on the way to the hit (or to the miss
        determination). Memory latency is added by the caller because it
        depends on the memory controller's state.
    memory_writebacks:
        Line indices whose dirty copies were evicted from the last level
        and must now be written to NVM.
    """

    hit_level: Optional[int]
    latency_ns: float
    memory_writebacks: List[int]


class CacheHierarchy:
    """L1/L2/L3 stack for one core.

    Parameters
    ----------
    l1, l2, l3:
        Geometry of each level.
    timing:
        Converts per-level cycle latencies to nanoseconds.
    stats:
        Shared statistics registry (namespaces ``l1``/``l2``/``l3``).
    shared_l3:
        Optional pre-built L3 shared among cores (or an
        :class:`L3EventSink`); when given, ``l3`` config is ignored and
        the L3 latency is the installed cache's.
    name_prefix:
        Prepended to stat namespaces so per-core caches stay separable
        (e.g. ``"core0."``).
    """

    __slots__ = (
        "_vals",
        "l1",
        "l2",
        "l3",
        "_levels",
        "_walk_ns",
        "_k_memory_writebacks",
        "_k_clwb",
        "_k_clwb_dirty",
        "_k_clflush",
    )

    def __init__(
        self,
        l1: CacheConfig,
        l2: CacheConfig,
        l3: CacheConfig,
        timing: TimingConfig,
        stats: Stats,
        shared_l3: Optional[SetAssociativeCache] = None,
        name_prefix: str = "",
    ):
        self._vals = stats.values
        self.l1 = SetAssociativeCache(l1, stats, f"{name_prefix}l1")
        self.l2 = SetAssociativeCache(l2, stats, f"{name_prefix}l2")
        # An explicit None check: SetAssociativeCache defines __len__, so an
        # empty shared L3 would be falsy under ``shared_l3 or ...``.
        self.l3 = (
            shared_l3
            if shared_l3 is not None
            else SetAssociativeCache(l3, stats, "l3")
        )
        self._levels = [self.l1, self.l2, self.l3]
        self._walk_ns = walk_latencies_ns(l1, l2, self.l3.config, timing)
        self._k_memory_writebacks = stats.slot("hierarchy", "memory_writebacks")
        self._k_clwb = stats.slot("hierarchy", "clwb")
        self._k_clwb_dirty = stats.slot("hierarchy", "clwb_dirty")
        self._k_clflush = stats.slot("hierarchy", "clflush")

    # ------------------------------------------------------------------
    # Loads and stores
    # ------------------------------------------------------------------

    def access(self, line: int, write: bool):
        """Drive one load/store; returns ``(hit_level, latency_ns, wbs)``.

        Walks L1→L3, filling on each miss; a hit also fills the closer
        levels. A dirty victim moves one level down (or out to memory
        from L3). Level lists live in locals, there is no outcome object,
        and the write-back list is only allocated once a dirty line
        actually leaves L3.
        """
        levels = self._levels
        wb: Optional[List[int]] = None
        for depth in range(3):
            hit, evicted = levels[depth].access(line, write and depth == 0)
            if evicted is not None and evicted.dirty:
                if wb is None:
                    wb = []
                self._push_down(depth, evicted.line, wb)
            if hit:
                for d in range(depth - 1, -1, -1):
                    ev = levels[d].fill(line, write and d == 0)
                    if ev is not None and ev.dirty:
                        if wb is None:
                            wb = []
                        self._push_down(d, ev.line, wb)
                return (
                    depth + 1,
                    self._walk_ns[depth],
                    wb if wb is not None else _EMPTY_WB,
                )
        # Missed everywhere: the access() calls above already filled each
        # level (miss-fill), so only the outcome remains to be reported.
        return None, self._walk_ns[2], (wb if wb is not None else _EMPTY_WB)

    def read(self, line: int) -> ReadOutcome:
        """Drive a load; fill upper levels on lower-level hits."""
        hit_level, latency, wb = self.access(line, False)
        return ReadOutcome(hit_level, latency, list(wb))

    def write(self, line: int) -> ReadOutcome:
        """Drive a store (write-allocate; line becomes dirty in L1)."""
        hit_level, latency, wb = self.access(line, True)
        return ReadOutcome(hit_level, latency, list(wb))

    def _push_down(self, depth: int, victim: int, writebacks: List[int]) -> None:
        """Install a known-dirty victim one level down (or emit to memory)."""
        levels = self._levels
        while depth + 1 < 3:
            depth += 1
            inner = levels[depth].fill(victim, dirty=True)
            if inner is None or not inner.dirty:
                return
            victim = inner.line
        writebacks.append(victim)
        self._vals[self._k_memory_writebacks] += 1

    # ------------------------------------------------------------------
    # Persistence instructions
    # ------------------------------------------------------------------

    def clwb(self, line: int) -> bool:
        """Write the line back toward memory, keeping it cached clean.

        Returns whether any level held a dirty copy — i.e. whether the
        memory controller must receive a write. (Flushing a clean or absent
        line is a no-op at the memory, exactly like hardware clwb.)
        """
        l1, l2, l3 = self._levels
        was_dirty = l1.clean(line)
        was_dirty = l2.clean(line) or was_dirty
        was_dirty = l3.clean(line) or was_dirty
        vals = self._vals
        vals[self._k_clwb] += 1
        if was_dirty:
            vals[self._k_clwb_dirty] += 1
        return was_dirty

    def clflush(self, line: int) -> bool:
        """Invalidate the line everywhere; returns whether it was dirty."""
        was_dirty = False
        for cache in self._levels:
            was_dirty |= cache.invalidate(line)
        self._vals[self._k_clflush] += 1
        return was_dirty

    def lose_all_volatile_state(self) -> List[int]:
        """Power failure: drop every level; return dirty lines that died."""
        lost: List[int] = []
        for cache in self._levels:
            lost.extend(cache.flush_all())
        return sorted(set(lost))


class L3EventSink:
    """Stands in for the shared L3 while one core's private walk is recorded.

    Every lookup misses, so the walk reports an L2 miss as a miss, and
    every dirty line the private levels push down is appended, in order,
    to ``pushed``. The recorder drains ``pushed`` after each op; the
    replay later looks the line up in, and pushes those lines into, the
    real shared L3. ``clean`` reports no L3 copy: the replay cleans the
    real one.
    """

    __slots__ = ("config", "pushed")

    def __init__(self, config: CacheConfig):
        self.config = config
        self.pushed: List[int] = []

    def access(self, line: int, write: bool):
        return False, None

    def fill(self, line: int, dirty: bool = False) -> None:
        self.pushed.append(line)

    def clean(self, line: int) -> bool:
        return False
