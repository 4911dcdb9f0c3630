"""The memory controller's on-chip integrity-tree node cache.

One cached entry corresponds to one *tree node* — a 16 B hash of a
Bonsai Merkle counter-tree level (four nodes share a 64 B NVM line; see
:class:`repro.crypto.tree_timed.TreeGeometry`) — so the cache is keyed
by **node id**. It follows the ``counter_cache.py`` conventions (a
:class:`~repro.cache.sram.SetAssociativeCache` tag store reporting under
one stats namespace, here ``"it"``), but is always **write-back**: the
whole point of caching tree nodes (Freij et al., *Streamlining Integrity
Tree Updates*) is that a dirty cached ancestor terminates the leaf→root
update walk — the pending update will be folded into the ancestor's
eventual rehash — so dirtiness must accumulate in SRAM.

Crash behaviour mirrors the write-back counter cache without a battery:
dirty nodes die with the SRAM. That is *safe* for integrity trees (the
tree is reconstructible from the persisted counter region; see
``RecoveredSystem.rebuild_integrity_tree``), which is why the scheme
stays crash-consistent while the counter cache itself must remain
write-through.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.sram import SetAssociativeCache
from repro.common.config import CacheConfig
from repro.common.stats import Stats


class TreeNodeCache:
    """Presence/dirty model of the integrity-tree node cache.

    Parameters
    ----------
    config:
        Geometry (size, associativity, latency).
    stats:
        Shared statistics registry; reports under namespace ``"it"``.
    """

    def __init__(self, config: CacheConfig, stats: Stats):
        self.config = config
        self._stats = stats
        self._cache = SetAssociativeCache(config, stats, "it")
        self._vals = stats.values
        self._k_updates = stats.slot("it", "node_updates")
        self._k_writebacks = stats.slot("it", "node_writebacks")
        self._k_coalesced = stats.slot("it", "coalesced_updates")

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------

    def access(self, node: int, update: bool) -> tuple[bool, Optional[int], bool]:
        """Touch tree node ``node``.

        Parameters
        ----------
        node:
            Tree node id (see ``TreeGeometry.node_id``).
        update:
            True when the access rehashes the node (write-path walk);
            False for a read-path verification fill.

        Returns
        -------
        (hit, writeback_node, fetch_needed)
            ``hit``
                Whether the node was already cached.
            ``writeback_node``
                A dirty victim node that must now be written to its NVM
                line; ``None`` otherwise.
            ``fetch_needed``
                Whether the node must first be fetched from NVM (always
                true on a miss).
        """
        hit, evicted = self._cache.access(node, write=update)
        if update:
            self._vals[self._k_updates] += 1
        writeback_node = None
        if evicted is not None and evicted.dirty:
            writeback_node = evicted.line
            self._vals[self._k_writebacks] += 1
        return hit, writeback_node, not hit

    def is_dirty(self, node: int) -> bool:
        """Whether ``node`` is cached dirty — the coalesced-stop test."""
        return self._cache.is_dirty(node)

    def note_coalesced(self) -> None:
        """Count one update walk terminated at a dirty ancestor."""
        self._vals[self._k_coalesced] += 1

    def contains(self, node: int) -> bool:
        return self._cache.contains(node)

    # ------------------------------------------------------------------
    # Crash behaviour
    # ------------------------------------------------------------------

    def crash(self) -> List[int]:
        """Power failure: drop all SRAM state; returns the dirty nodes
        whose NVM copies are now stale (recovery rebuilds them)."""
        return self._cache.flush_all()

    def drain_dirty(self) -> List[int]:
        """Cleanly write back every dirty node (orderly shutdown)."""
        dirty = list(self._cache.dirty_lines())
        for node in dirty:
            self._cache.clean(node)
        return dirty

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        return self._stats.ratio("it", "hits", "accesses")

    def __len__(self) -> int:
        return len(self._cache)
