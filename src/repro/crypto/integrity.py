"""Memory authentication: line MACs + a Bonsai-style Merkle counter tree.

The paper's threat model (Section 2.2.1, footnote 1) excludes bus
*tampering*, noting it "can be defended via Merkle Trees based
authentication techniques, which are orthogonal to our work". This module
implements that orthogonal layer so the repository covers the full secure-
NVM stack:

* **per-line MACs** — ``HMAC(key, line_addr || counter || ciphertext)``
  stored alongside each line. Because the counter is MAC'd, replaying an
  old (ciphertext, MAC) pair fails once the counter advanced;
* **a Merkle tree over the counter blocks** (the Bonsai organisation:
  authenticating the counters transitively authenticates the data MACs,
  so only the tree root needs trusted on-chip storage). The root lives
  "on chip" — an attacker with full NVM access cannot forge any counter
  without breaking the hash.

The tree is binary, built over the serialized counter-block images, and
supports incremental updates (one leaf changes → log-depth path rehash),
root extraction for the trusted register, and verification with an
explicit audit path.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError, SecurityError

_HASH_BYTES = 16  # truncated SHA-256, plenty for a simulator


def _h(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()[:_HASH_BYTES]


class LineMAC:
    """Keyed MAC binding a line's ciphertext to its address and counter."""

    MAC_BYTES = 8

    def __init__(self, key: bytes):
        if not key:
            raise ConfigError("MAC key must be non-empty")
        self._key = bytes(key)

    def compute(self, line_addr: int, counter: int, ciphertext: bytes) -> bytes:
        message = struct.pack("<QQ", line_addr, counter) + ciphertext
        return hmac.new(self._key, message, hashlib.sha256).digest()[: self.MAC_BYTES]

    def verify(self, line_addr: int, counter: int, ciphertext: bytes, mac: bytes) -> bool:
        return hmac.compare_digest(self.compute(line_addr, counter, ciphertext), mac)


class MerkleCounterTree:
    """A binary Merkle tree over counter-block images (Bonsai style).

    Leaves are hashes of serialized counter blocks; the root is held in a
    trusted on-chip register. ``n_leaves`` is rounded up to a power of
    two; absent leaves hash an empty-block marker.
    """

    def __init__(self, n_leaves: int):
        if n_leaves <= 0:
            raise ConfigError("tree needs at least one leaf")
        size = 1
        while size < n_leaves:
            size *= 2
        self.n_leaves = size
        # nodes[level][index]; level 0 = leaves, top level = root. Every
        # node of an all-empty level hashes the same pair, so each level
        # is one digest repeated, in a list of its own.
        self._levels: List[List[bytes]] = []
        node = _h(b"empty-counter-block")
        while True:
            self._levels.append([node] * size)
            if size == 1:
                break
            node = _h(node + node)
            size //= 2

    @property
    def root(self) -> bytes:
        """The trusted on-chip root."""
        return self._levels[-1][0]

    @property
    def depth(self) -> int:
        return len(self._levels) - 1

    def update_leaf(self, index: int, block_image: bytes) -> bytes:
        """Install a new counter-block image; returns the new root.

        Cost is one leaf hash plus ``depth`` internal rehashes — the
        incremental update real hardware performs per counter write.
        """
        self._check_index(index)
        self._levels[0][index] = _h(block_image)
        node = index
        for level in range(1, len(self._levels)):
            node //= 2
            left = self._levels[level - 1][2 * node]
            right = self._levels[level - 1][2 * node + 1]
            self._levels[level][node] = _h(left + right)
        return self.root

    def audit_path(self, index: int) -> List[Tuple[bytes, bool]]:
        """Sibling hashes from leaf to root: ``(hash, sibling_is_right)``."""
        self._check_index(index)
        path = []
        node = index
        for level in range(self.depth):
            sibling = node ^ 1
            path.append((self._levels[level][sibling], sibling > node))
            node //= 2
        return path

    @staticmethod
    def verify_path(
        block_image: bytes, path: List[Tuple[bytes, bool]], root: bytes
    ) -> bool:
        """Recompute the root from a leaf image and its audit path."""
        node = _h(block_image)
        for sibling, sibling_is_right in path:
            node = _h(node + sibling) if sibling_is_right else _h(sibling + node)
        return hmac.compare_digest(node, root)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.n_leaves:
            raise ConfigError(f"leaf index {index} outside 0..{self.n_leaves - 1}")


class IntegrityEngine:
    """The combined authentication layer for a secure NVM.

    Tracks per-line MACs and the counter Merkle tree; the memory system
    (or a test harness) calls :meth:`on_write` for every persisted line
    and :meth:`verify_read` for every fetch. Statistics expose the hash
    work so the overhead is measurable.
    """

    def __init__(self, n_counter_blocks: int, key: bytes = b"integrity-key"):
        self.mac = LineMAC(key)
        self.tree = MerkleCounterTree(n_counter_blocks)
        self._line_macs: Dict[int, bytes] = {}
        self.mac_computations = 0
        self.tree_updates = 0

    def on_write(
        self,
        line_addr: int,
        counter: int,
        ciphertext: bytes,
        block_key: Optional[int] = None,
        block_image: Optional[bytes] = None,
    ) -> None:
        """Authenticate one persisted line (and its counter block)."""
        self._line_macs[line_addr] = self.mac.compute(line_addr, counter, ciphertext)
        self.mac_computations += 1
        if block_key is not None and block_image is not None:
            self.tree.update_leaf(block_key, block_image)
            self.tree_updates += 1

    def verify_read(self, line_addr: int, counter: int, ciphertext: bytes) -> None:
        """Raise :class:`SecurityError` if the line fails authentication."""
        stored = self._line_macs.get(line_addr)
        self.mac_computations += 1
        if stored is None:
            raise SecurityError(f"no MAC recorded for line {line_addr:#x}")
        if not self.mac.verify(line_addr, counter, ciphertext, stored):
            raise SecurityError(f"MAC mismatch on line {line_addr:#x}")

    def verify_counter_block(self, block_key: int, block_image: bytes) -> None:
        """Raise :class:`SecurityError` if a counter block was tampered."""
        path = self.tree.audit_path(block_key)
        if not MerkleCounterTree.verify_path(block_image, path, self.tree.root):
            raise SecurityError(f"Merkle verification failed for block {block_key}")
