"""Tests for the memory-authentication extension (MACs + Merkle tree)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError, SecurityError
from repro.crypto.integrity import IntegrityEngine, LineMAC, MerkleCounterTree, _h

CT = bytes(range(64))


class TestLineMAC:
    def test_verify_roundtrip(self):
        mac = LineMAC(b"key")
        tag = mac.compute(5, 7, CT)
        assert mac.verify(5, 7, CT, tag)

    def test_ciphertext_tamper_detected(self):
        mac = LineMAC(b"key")
        tag = mac.compute(5, 7, CT)
        tampered = bytes([CT[0] ^ 1]) + CT[1:]
        assert not mac.verify(5, 7, tampered, tag)

    def test_replay_with_old_counter_detected(self):
        """The MAC binds the counter: replaying stale (ct, mac) fails once
        the counter has advanced."""
        mac = LineMAC(b"key")
        old_tag = mac.compute(5, 7, CT)
        assert not mac.verify(5, 8, CT, old_tag)

    def test_relocation_detected(self):
        mac = LineMAC(b"key")
        tag = mac.compute(5, 7, CT)
        assert not mac.verify(6, 7, CT, tag)

    def test_key_matters(self):
        tag = LineMAC(b"key-a").compute(1, 1, CT)
        assert not LineMAC(b"key-b").verify(1, 1, CT, tag)

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError):
            LineMAC(b"")


def _reference_levels(n_leaves: int):
    """Every level of an all-empty tree, hashing every node's pair."""
    size = 1
    while size < n_leaves:
        size *= 2
    level = [_h(b"empty-counter-block")] * size
    levels = [level]
    while len(level) > 1:
        level = [_h(level[2 * i] + level[2 * i + 1]) for i in range(len(level) // 2)]
        levels.append(level)
    return levels


def _reference_path(levels, index: int):
    path = []
    for level in levels[:-1]:
        sibling = index ^ 1
        path.append((level[sibling], sibling > index))
        index //= 2
    return path


class TestMerkleCounterTree:
    @pytest.mark.parametrize("n_leaves", [1, 3, 5, 64, 4096])
    def test_empty_tree_matches_the_full_construction(self, n_leaves):
        levels = _reference_levels(n_leaves)
        tree = MerkleCounterTree(n_leaves)
        assert tree._levels == levels
        assert tree.root == levels[-1][0]
        for index in range(tree.n_leaves):
            assert tree.audit_path(index) == _reference_path(levels, index)

    @pytest.mark.parametrize("n_leaves", [1, 5, 64])
    def test_updates_touch_only_their_own_tree(self, n_leaves):
        touched = MerkleCounterTree(n_leaves)
        untouched = MerkleCounterTree(n_leaves)
        for index in range(touched.n_leaves):
            touched.update_leaf(index, bytes([index % 256]) * 64)
        assert untouched._levels == _reference_levels(n_leaves)
        assert touched.root != untouched.root

    def test_rounds_up_to_power_of_two(self):
        assert MerkleCounterTree(5).n_leaves == 8
        assert MerkleCounterTree(8).n_leaves == 8
        assert MerkleCounterTree(1).n_leaves == 1

    def test_update_changes_root(self):
        tree = MerkleCounterTree(8)
        before = tree.root
        tree.update_leaf(3, b"block-image")
        assert tree.root != before

    def test_same_content_same_root(self):
        a, b = MerkleCounterTree(8), MerkleCounterTree(8)
        for i in range(8):
            a.update_leaf(i, bytes([i]) * 64)
            b.update_leaf(i, bytes([i]) * 64)
        assert a.root == b.root

    def test_audit_path_verifies(self):
        tree = MerkleCounterTree(8)
        image = b"counter-block-3"
        tree.update_leaf(3, image)
        path = tree.audit_path(3)
        assert len(path) == tree.depth
        assert MerkleCounterTree.verify_path(image, path, tree.root)

    def test_audit_path_rejects_tampered_leaf(self):
        tree = MerkleCounterTree(8)
        tree.update_leaf(3, b"honest")
        path = tree.audit_path(3)
        assert not MerkleCounterTree.verify_path(b"forged", path, tree.root)

    def test_invalid_index_rejected(self):
        tree = MerkleCounterTree(4)
        with pytest.raises(ConfigError):
            tree.update_leaf(4, b"x")
        with pytest.raises(ConfigError):
            tree.audit_path(-1)

    def test_zero_leaves_rejected(self):
        with pytest.raises(ConfigError):
            MerkleCounterTree(0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=15),
        st.binary(min_size=1, max_size=64),
    )
    def test_property_every_leaf_verifies_after_updates(self, index, image):
        tree = MerkleCounterTree(16)
        tree.update_leaf(index, image)
        assert MerkleCounterTree.verify_path(
            image, tree.audit_path(index), tree.root
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=100),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 30),
                st.binary(min_size=1, max_size=64),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_property_roundtrip_any_leaf_count(self, n_leaves, writes):
        """update_leaf/audit_path/verify_path round-trip for arbitrary —
        including non-power-of-two — leaf counts: after a random write
        sequence every leaf's *final* image verifies, and no forged image
        does."""
        tree = MerkleCounterTree(n_leaves)
        final = {}
        for raw_index, image in writes:
            index = raw_index % tree.n_leaves
            tree.update_leaf(index, image)
            final[index] = image
        for index, image in final.items():
            path = tree.audit_path(index)
            assert len(path) == tree.depth
            assert MerkleCounterTree.verify_path(image, path, tree.root)
            forged = bytes([image[0] ^ 0x5A]) + image[1:]
            assert not MerkleCounterTree.verify_path(forged, path, tree.root)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=100), st.integers())
    def test_property_out_of_range_index_contract(self, n_leaves, index):
        """Every index outside ``0..n_leaves-1`` (after power-of-two
        rounding) is a ConfigError from both update and audit; every
        index inside is accepted."""
        tree = MerkleCounterTree(n_leaves)
        if 0 <= index < tree.n_leaves:
            tree.update_leaf(index, b"ok")
            assert tree.audit_path(index) is not None
        else:
            with pytest.raises(ConfigError):
                tree.update_leaf(index, b"x")
            with pytest.raises(ConfigError):
                tree.audit_path(index)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 30),
                st.binary(min_size=1, max_size=64),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_property_untouched_sibling_subtree_is_stable(
        self, depth_pow, writes
    ):
        """Updates confined to the left half never move the right
        sibling subtree: re-auditing any untouched right-half leaf is
        read-only (root unchanged) and its path hashes are identical
        before and after the left-half write storm."""
        n_leaves = 1 << depth_pow
        half = n_leaves // 2
        tree = MerkleCounterTree(n_leaves)
        right_paths_before = {
            leaf: tree.audit_path(leaf)[:-1]  # drop the shared top sibling
            for leaf in range(half, n_leaves)
        }
        for raw_index, image in writes:
            tree.update_leaf(raw_index % half, image)  # left half only
        root_after = tree.root
        for leaf in range(half, n_leaves):
            path = tree.audit_path(leaf)
            # Audits are pure reads: the root never moves.
            assert tree.root == root_after
            # Within the untouched right subtree every sibling hash is
            # exactly what it was before the writes; only the topmost
            # sibling (the left subtree's summary) may have changed.
            assert path[:-1] == right_paths_before[leaf]
            # And the never-written leaf still verifies as the
            # empty-block marker under the *new* root.
            assert MerkleCounterTree.verify_path(
                b"empty-counter-block", path, tree.root
            )


class TestIntegrityEngine:
    def test_honest_read_verifies(self):
        engine = IntegrityEngine(n_counter_blocks=16)
        engine.on_write(0, 1, CT, block_key=0, block_image=b"blk")
        engine.verify_read(0, 1, CT)  # no raise

    def test_tampered_read_raises(self):
        engine = IntegrityEngine(n_counter_blocks=16)
        engine.on_write(0, 1, CT)
        with pytest.raises(SecurityError):
            engine.verify_read(0, 1, bytes(64))

    def test_replay_raises(self):
        engine = IntegrityEngine(n_counter_blocks=16)
        engine.on_write(0, 1, CT)
        engine.on_write(0, 2, bytes(reversed(CT)))  # newer version
        with pytest.raises(SecurityError):
            engine.verify_read(0, 1, CT)  # replay of version 1

    def test_unknown_line_raises(self):
        engine = IntegrityEngine(n_counter_blocks=16)
        with pytest.raises(SecurityError):
            engine.verify_read(99, 0, CT)

    def test_counter_block_verification(self):
        engine = IntegrityEngine(n_counter_blocks=16)
        engine.on_write(0, 1, CT, block_key=2, block_image=b"honest-block")
        engine.verify_counter_block(2, b"honest-block")
        with pytest.raises(SecurityError):
            engine.verify_counter_block(2, b"tampered-block")

    def test_work_counters(self):
        engine = IntegrityEngine(n_counter_blocks=16)
        engine.on_write(0, 1, CT, block_key=0, block_image=b"b")
        engine.verify_read(0, 1, CT)
        assert engine.mac_computations == 2
        assert engine.tree_updates == 1
