"""Functional integrity-tree models for the timed walk's differential suite.

* :class:`CoalescedTreeModel` — the functional twin of the timed write
  path: a real :class:`~repro.crypto.integrity.MerkleCounterTree`
  updated eagerly (so roots and verify outcomes are exact), with hash
  work counted per the Freij-style walk — climb leaf→root through the
  node cache and *stop at the first dirty cached ancestor*, whose
  eventual rehash folds the pending update in.
* :class:`NaiveTreeReference` — the full-path-update oracle: every
  counter write rehashes the entire leaf→root path.

tests/crypto/test_tree_timed.py drives both over randomized write/read
sequences and asserts identical roots and verify outcomes with
``coalesced.hash_ops <= naive.hash_ops``.
"""

from typing import Optional

from repro.cache.tree_cache import TreeNodeCache
from repro.common.config import CacheConfig, _default_tree_cache
from repro.common.stats import Stats
from repro.crypto.integrity import MerkleCounterTree
from repro.crypto.tree_timed import TreeGeometry


class NaiveTreeReference:
    """Full-path-update oracle: one leaf write rehashes leaf→root."""

    def __init__(self, n_leaves: int):
        self.tree = MerkleCounterTree(n_leaves)
        self.hash_ops = 0

    @property
    def root(self) -> bytes:
        return self.tree.root

    def update(self, leaf: int, block_image: bytes) -> bytes:
        self.tree.update_leaf(leaf, block_image)
        # One leaf hash + every internal level + the root register.
        self.hash_ops += 1 + self.tree.depth
        return self.tree.root

    def verify(self, leaf: int, block_image: bytes) -> bool:
        path = self.tree.audit_path(leaf)
        return MerkleCounterTree.verify_path(block_image, path, self.tree.root)


class CoalescedTreeModel:
    """Node-cached, coalesced twin of :class:`NaiveTreeReference`.

    Functionally identical (the underlying tree is updated eagerly, so
    the root is always exact); only the *counted hash work* follows the
    timed walk: stop at the first dirty cached ancestor, pay a fetch for
    every cache miss, write back dirty victims.
    """

    def __init__(self, n_leaves: int, cache_config: Optional[CacheConfig] = None):
        self.tree = MerkleCounterTree(n_leaves)
        self.geometry = TreeGeometry(self.tree.n_leaves)
        self.cache = TreeNodeCache(cache_config or _default_tree_cache(), Stats())
        self.hash_ops = 0
        self.node_fetches = 0
        self.node_writebacks = 0
        self.coalesced_stops = 0

    @property
    def root(self) -> bytes:
        return self.tree.root

    def update(self, leaf: int, block_image: bytes) -> bytes:
        self.tree.update_leaf(leaf, block_image)
        self.hash_ops += 1  # the leaf (counter-block) rehash
        for node in self.geometry.ancestors(leaf):
            if self.cache.is_dirty(node):
                self.cache.note_coalesced()
                self.coalesced_stops += 1
                return self.tree.root
            _, writeback, fetch = self.cache.access(node, update=True)
            if fetch:
                self.node_fetches += 1
            if writeback is not None:
                self.node_writebacks += 1
            self.hash_ops += 1
        if self.tree.depth:  # a single-leaf tree's leaf hash IS the root
            self.hash_ops += 1  # root register rehash
        return self.tree.root

    def verify(self, leaf: int, block_image: bytes) -> bool:
        path = self.tree.audit_path(leaf)
        return MerkleCounterTree.verify_path(block_image, path, self.tree.root)
