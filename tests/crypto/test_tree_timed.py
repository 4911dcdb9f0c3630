"""Differential suite for the timed integrity-tree machinery.

Drives :class:`CoalescedTreeModel` (node-cached, Freij-style coalesced
walk) and :class:`NaiveTreeReference` (full-path-update oracle), both in
:mod:`tests.crypto.tree_models`, over identical randomized write/read
sequences and asserts they are functionally indistinguishable — same roots after every update, same
verify outcomes on every probe — while the coalesced walk never performs
more hash work than the naive one. Geometry (node numbering, NVM
placement, bank striping) is unit-tested alongside.
"""

import random

import pytest

from repro.common.config import CacheConfig, MemoryConfig, SimConfig
from repro.common.errors import ConfigError
from repro.crypto.tree_timed import NODES_PER_LINE, TreeGeometry
from tests.crypto.tree_models import CoalescedTreeModel, NaiveTreeReference

#: A deliberately tiny node cache: forces evictions and writebacks so the
#: differential run exercises the miss/victim paths, not just warm hits.
TINY_CACHE = CacheConfig(size=256, assoc=2, latency_cycles=8)


def _block(rng: random.Random) -> bytes:
    return bytes(rng.randrange(256) for _ in range(64))


class TestTreeGeometry:
    def test_rounds_leaves_to_power_of_two(self):
        geom = TreeGeometry(5)
        assert geom.n_leaves == 8
        assert geom.depth == 3
        # Internal levels 1 and 2: 4 + 2 nodes; the root is a register.
        assert geom.n_nodes == 6

    def test_single_leaf_tree_has_no_internal_nodes(self):
        geom = TreeGeometry(1)
        assert geom.depth == 0
        assert geom.n_nodes == 0
        assert geom.ancestors(0) == []

    def test_ancestors_walk_level_by_level(self):
        geom = TreeGeometry(8)
        # Leaf 5: level-1 node 2 (id 2), level-2 node 1 (id 4 + 1).
        assert geom.ancestors(5) == [2, 5]
        assert len(geom.ancestors(0)) == geom.depth - 1

    @pytest.mark.parametrize("leaf", [-1, 8, 1000])
    def test_out_of_range_leaf_rejected(self, leaf):
        geom = TreeGeometry(8)
        with pytest.raises(ConfigError):
            geom.ancestors(leaf)

    def test_nonpositive_leaf_count_rejected(self):
        with pytest.raises(ConfigError):
            TreeGeometry(0)

    def test_nodes_pack_four_to_a_line(self):
        geom = TreeGeometry(64)
        lines = {geom.node_line(n) for n in range(NODES_PER_LINE)}
        assert len(lines) == 1
        assert geom.node_line(NODES_PER_LINE) == geom.node_line(0) + 1
        assert geom.n_node_lines == -(-geom.n_nodes // NODES_PER_LINE)

    def test_placement_stripes_banks_above_counter_region(self):
        cfg = SimConfig(memory=MemoryConfig(capacity=1 << 20))
        amap = cfg.address_map()
        geom = TreeGeometry(amap.n_pages, amap=amap)
        # The node region sits strictly above data + counter regions.
        assert geom.base_line == amap.n_lines + amap.n_pages
        n_banks = cfg.memory.n_banks
        banks = set()
        for node in range(min(geom.n_nodes, 4 * n_banks)):
            line, bank, row = geom.placement(node, n_banks)
            assert line >= geom.base_line
            assert bank == line % n_banks
            assert row == amap.row_of_line(line)
            banks.add(bank)
        # Adjacent node lines must actually spread over banks.
        assert len(banks) > 1


class TestDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n_leaves", [1, 7, 32, 100])
    def test_coalesced_matches_naive_reference(self, seed, n_leaves):
        """Identical roots and verify outcomes over a random mixed
        write/read sequence; coalescing only ever *saves* hash work."""
        rng = random.Random(0xB0_0000 + seed)
        naive = NaiveTreeReference(n_leaves)
        fast = CoalescedTreeModel(n_leaves, cache_config=TINY_CACHE)
        assert fast.root == naive.root  # identical empty trees
        images = {}
        updates = 0
        for _ in range(300):
            leaf = rng.randrange(n_leaves)
            if rng.random() < 0.6:  # write leg
                image = _block(rng)
                images[leaf] = image
                root_naive = naive.update(leaf, image)
                root_fast = fast.update(leaf, image)
                updates += 1
                assert root_fast == root_naive, (
                    f"roots diverged after update #{updates} of leaf {leaf}"
                )
            else:  # read leg: verify a genuine and a forged image
                image = images.get(leaf, b"\x00" * 64)
                assert fast.verify(leaf, image) == naive.verify(leaf, image)
                forged = bytes([image[0] ^ 0xFF]) + image[1:]
                assert (
                    fast.verify(leaf, forged)
                    == naive.verify(leaf, forged)
                    is False
                )
        # Every genuinely written leaf verifies on both sides.
        for leaf, image in images.items():
            assert naive.verify(leaf, image)
            assert fast.verify(leaf, image)
        # The naive oracle pays the full path for every update; the
        # coalesced walk must never exceed it.
        assert naive.hash_ops == updates * (1 + naive.tree.depth)
        assert fast.hash_ops <= naive.hash_ops

    def test_roots_are_monotone_consistent(self):
        """Reads never move the root; each update moves both in
        lockstep (same before/after roots at every step)."""
        rng = random.Random(7)
        naive = NaiveTreeReference(16)
        fast = CoalescedTreeModel(16, cache_config=TINY_CACHE)
        roots = [fast.root]
        for step in range(64):
            leaf = rng.randrange(16)
            before = fast.root
            assert before == naive.root
            fast.verify(leaf, b"\x00" * 64)
            naive.verify(leaf, b"\x00" * 64)
            assert fast.root == before, "verify must not mutate the tree"
            image = _block(rng)
            assert fast.update(leaf, image) == naive.update(leaf, image)
            roots.append(fast.root)
        # A fresh replay of the same sequence reproduces the root trace.
        rng = random.Random(7)
        replay = CoalescedTreeModel(16, cache_config=TINY_CACHE)
        trace = [replay.root]
        for step in range(64):
            leaf = rng.randrange(16)
            replay.verify(leaf, b"\x00" * 64)
            image = _block(rng)
            replay.update(leaf, image)
            trace.append(replay.root)
        assert trace == roots

    def test_hot_leaf_coalesces(self):
        """Hammering one leaf leaves its ancestors dirty in the cache:
        after the first walk, every subsequent update stops at the first
        dirty ancestor and the saved hash work is observable."""
        fast = CoalescedTreeModel(64)
        naive = NaiveTreeReference(64)
        image = b"\x01" * 64
        for i in range(32):
            image = bytes([i]) * 64
            fast.update(3, image)
            naive.update(3, image)
        assert fast.root == naive.root
        assert fast.coalesced_stops == 31  # all but the cold first walk
        assert fast.hash_ops < naive.hash_ops

    def test_tiny_cache_writes_back_but_stays_exact(self):
        """Evictions under a tiny cache produce writebacks — and still
        change nothing functionally."""
        rng = random.Random(11)
        fast = CoalescedTreeModel(256, cache_config=TINY_CACHE)
        naive = NaiveTreeReference(256)
        for _ in range(400):
            leaf = rng.randrange(256)
            image = _block(rng)
            fast.update(leaf, image)
            naive.update(leaf, image)
        assert fast.root == naive.root
        assert fast.node_writebacks > 0, "tiny cache must evict dirty nodes"
        assert fast.node_fetches > 0
        assert fast.hash_ops <= naive.hash_ops
