"""Timed integrity-tree geometry.

:class:`TreeGeometry` is the NVM placement of the Bonsai counter tree
that the timed ``Scheme.SUPERMEM_BMT`` walks
(:meth:`repro.core.system.SecureMemorySystem._tree_update` and
``_tree_verify``) read and write. Leaves are the counter blocks
themselves (already persisted in the counter region at
``amap.n_lines + page``); internal nodes are 16 B hashes packed four to a
64 B line in a region *above* the counters, at
``amap.n_lines + n_pages + k``. The root lives in an on-chip register and
has no NVM line. Node lines stripe across banks by line index, so with
page-interleaved data they also stripe across memory channels — the
placement the ``fig-channels`` sweep exercises.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.address import AddressMap, CACHE_LINE_SIZE
from repro.common.errors import ConfigError
from repro.crypto.integrity import _HASH_BYTES

#: 16 B hashes pack four to a 64 B NVM line.
NODES_PER_LINE = CACHE_LINE_SIZE // _HASH_BYTES


class TreeGeometry:
    """Node numbering and NVM placement of the counter Merkle tree.

    Internal nodes (levels ``1 .. depth-1``; the root register is not a
    node) get dense ids: level 1 first, then level 2, and so on. Node
    ``k`` lives in NVM line ``base_line + k // NODES_PER_LINE``.
    """

    def __init__(self, n_leaves: int, amap: Optional[AddressMap] = None):
        if n_leaves <= 0:
            raise ConfigError("tree needs at least one leaf")
        size = 1
        while size < n_leaves:
            size *= 2
        self.n_leaves = size
        self.depth = size.bit_length() - 1
        # Id offset of each internal level (1 .. depth-1).
        self._offsets: List[int] = [0, 0]
        count = 0
        for level in range(1, self.depth):
            count += size >> level
            self._offsets.append(count)
        #: Internal (cacheable, NVM-resident) nodes, root excluded.
        self.n_nodes = count
        self.amap = amap
        #: First NVM line of the tree-node region (just above the
        #: counter region's index extension).
        self.base_line = amap.n_lines + amap.n_pages if amap is not None else 0
        self.n_node_lines = -(-self.n_nodes // NODES_PER_LINE)

    def ancestors(self, leaf: int) -> List[int]:
        """Internal-node ids on the leaf→root path (root excluded)."""
        if not 0 <= leaf < self.n_leaves:
            raise ConfigError(f"leaf index {leaf} outside 0..{self.n_leaves - 1}")
        node = leaf
        out = []
        for level in range(1, self.depth):
            node >>= 1
            out.append(self._offsets[level] + node)
        return out

    def node_line(self, node: int) -> int:
        """NVM line holding ``node``'s 16 B hash."""
        return self.base_line + node // NODES_PER_LINE

    def placement(self, node: int, n_banks: int) -> Tuple[int, int, int]:
        """``(line, bank, row)`` of a tree node — bank-striped by line
        index so adjacent node lines spread over banks (and channels)."""
        line = self.node_line(node)
        bank = line % n_banks
        row = self.amap.row_of_line(line) if self.amap is not None else 0
        return line, bank, row
