"""The memory controller's on-chip counter cache.

One cached entry corresponds to one *counter line* — the 64 B line holding
the split counters of one 4 KB data page — so the cache is keyed by **page
index**. A 256 KB, 8-way cache holds 4096 counter lines, covering 16 MB of
data.

Two write policies (paper Sections 2.4 and 3.2):

* **write-through** (SuperMem): every counter update is immediately pushed
  to NVM through the write queue. Entries are never dirty, so a crash can
  never lose counter state that matters — whatever is in NVM (plus the
  ADR-protected write queue) is current.
* **write-back** (the WB baseline): updates stay in SRAM; NVM is written
  only on dirty eviction. Without a battery, a crash silently discards
  dirty counters and leaves NVM counters stale — this is the
  inconsistency of paper Figure 4b. The *ideal* WB baseline assumes a
  battery big enough to flush everything (``battery_backed=True``).

The cache tracks presence/dirtiness and hit statistics; counter *values*
live in :class:`repro.core.system.CounterStore`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.config import CounterCacheConfig, CounterCacheMode
from repro.common.stats import Stats
from repro.cache.sram import SetAssociativeCache
from repro.obs.tracer import NULL_TRACER


class CounterCache:
    """Presence/dirty model of the counter cache.

    Parameters
    ----------
    config:
        Geometry plus :class:`CounterCacheMode` and battery flag.
    stats:
        Shared statistics registry; reports under namespace ``"cc"``.
    """

    def __init__(self, config: CounterCacheConfig, stats: Stats, tracer=NULL_TRACER):
        self.config = config
        self._stats = stats
        self._tracer = tracer
        self._cache = SetAssociativeCache(config, stats, "cc")
        # Stat slots — access() runs once per data write (and once per
        # read-path OTP), so the inc() call overhead is measurable;
        # semantics are identical.
        self._vals = stats.values
        self._k_updates = stats.slot("cc", "updates")
        self._k_writebacks = stats.slot("cc", "writebacks")
        self._is_wt = config.mode is CounterCacheMode.WRITE_THROUGH

    @property
    def mode(self) -> CounterCacheMode:
        return self.config.mode

    @property
    def write_through(self) -> bool:
        return self.config.mode is CounterCacheMode.WRITE_THROUGH

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------

    def access(
        self, page: int, update: bool, t: float = 0.0
    ) -> tuple[bool, Optional[int]]:
        """Touch the counter line of ``page``.

        Parameters
        ----------
        page:
            Data page whose counter line is needed.
        update:
            True when the access modifies the counters (a data write bumps
            a minor counter); False for read-path OTP generation.
        t:
            Simulated time of the access; used only for event tracing
            (the cache itself is timing-free).

        Returns
        -------
        (hit, writeback_page)
            ``hit``
                Whether the counter line was already cached (determines the
                read path's OTP latency overlap). A miss must first fetch
                the counter line from NVM: counters cannot be used
                partially.
            ``writeback_page``
                In write-back mode, a dirty victim page whose counter line
                must now be written to NVM; ``None`` otherwise.
        """
        dirty = update and not self._is_wt
        hit, evicted = self._cache.access(page, write=dirty)
        if update:
            self._vals[self._k_updates] += 1
        if self._tracer.enabled:
            self._tracer.cc_access(t, page, hit, update)
            if evicted is not None:
                self._tracer.cc_evict(t, evicted.line, evicted.dirty)

        writeback_page = None
        if evicted is not None and evicted.dirty:
            writeback_page = evicted.line
            self._vals[self._k_writebacks] += 1
        return hit, writeback_page

    def is_dirty(self, page: int) -> bool:
        """Whether the cached counter line of ``page`` is dirty (WB only)."""
        return self._cache.is_dirty(page)

    def mark_clean(self, page: int) -> bool:
        """Clear the dirty bit after the counter line was persisted
        through some other path (SCA's counter-atomic pair, Osiris's
        stop-loss write). Returns whether it was dirty."""
        return self._cache.clean(page)

    def contains(self, page: int) -> bool:
        return self._cache.contains(page)

    # ------------------------------------------------------------------
    # Crash behaviour
    # ------------------------------------------------------------------

    def crash(self) -> tuple[List[int], List[int]]:
        """Power failure: drop all SRAM state.

        Returns
        -------
        (flushed, lost)
            ``flushed`` — dirty pages saved by the battery (ideal WB);
            ``lost`` — dirty pages whose NVM counter copies are now stale
            (the unrecoverable case the paper motivates with).
            Write-through caches return two empty lists: nothing dirty can
            exist.
        """
        dirty = self._cache.flush_all()
        if self.config.battery_backed:
            return dirty, []
        return [], dirty

    def drain_dirty(self) -> List[int]:
        """Cleanly write back every dirty line (orderly shutdown)."""
        dirty = list(self._cache.dirty_lines())
        for page in dirty:
            self._cache.clean(page)
        return dirty

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        return self._stats.ratio("cc", "hits", "accesses")

    def __len__(self) -> int:
        return len(self._cache)
