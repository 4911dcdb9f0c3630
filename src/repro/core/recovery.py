"""Post-crash recovery: rebuilding counters and plaintext from NVM.

After a power failure, the durable state is a :class:`~repro.core.crash.
DurableImage`: NVM line images (data region + counter region) and, when a
page re-encryption was in flight under an ADR-protected RSR, the RSR
record. :class:`RecoveredSystem` reconstructs the decryption view:

* counter blocks are parsed from the counter-region images;
* for the page named by the RSR, *done* lines decrypt under the new major
  (``old_major + 1``) while *pending* lines decrypt under the old major
  with the minors still present in the image — then
  :meth:`RecoveredSystem.resume_reencryption` finishes the interrupted
  job exactly as Section 3.4.4 describes;
* :meth:`RecoveredSystem.plaintext_of` is the recovery-time read primitive
  the transaction layer's log replay builds on.

A recovered line is *consistent* when its stored counter actually matches
the pad its ciphertext was produced with; with SuperMem's write-through +
atomicity-register design this holds for every line, which is what the
Table 1 experiments check end to end.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.common.address import AddressMap
from repro.common.errors import SimulationError
from repro.crypto.counters import CounterBlock, MINOR_BITS
from repro.crypto.otp import LineCipher
from repro.core.crash import DurableImage
from repro.memory.nvm import ZERO_LINE


class RecoveredSystem:
    """Read-side view of a crashed (or cleanly shut down) secure NVM.

    When a :class:`~repro.core.recovery_cost.RecoveryMeter` is supplied,
    every recovery action is billed the PCM latency model's cost: a bank
    read per line image fetched, a bank read per counter line the first
    time it is touched (after which its block lives in recovery SRAM),
    AES latency per pad derivation, and a bank write per line installed
    by the log replay. Without a meter the behaviour is unchanged — the
    correctness experiments (Table 1, crash storms) pay nothing.
    """

    def __init__(self, image: DurableImage, meter=None):
        if image.config is None:
            raise SimulationError("durable image carries no configuration")
        self.image = image
        self.config = image.config
        self.amap: AddressMap = self.config.address_map()
        self.cipher: Optional[LineCipher] = (
            LineCipher() if self.config.encrypted else None
        )
        self.meter = meter
        self._nvm: Dict[int, bytes] = dict(image.nvm)
        self._blocks: Dict[int, CounterBlock] = {}
        #: Lines rewritten by :meth:`apply_replay`; consulted before the
        #: durable image and read for free (they live in recovery SRAM).
        self._overlay: Dict[int, bytes] = {}
        #: Counter lines already fetched (and cached) by this recovery.
        self._fetched_counter_lines: Set[int] = set()
        #: Set by :meth:`rebuild_integrity_tree` (SuperMem+BMT recovery).
        self.rebuilt_tree = None
        self._parse_counter_region()

    # ------------------------------------------------------------------
    # Cost accounting (no-ops without a meter)
    # ------------------------------------------------------------------

    def _charge_read(self, line: int) -> None:
        if self.meter is not None:
            self.meter.nvm_read(line, counter=False)

    def _charge_counter_fetch(self, page: int) -> None:
        if self.meter is None:
            return
        counter_line = self._counter_line_of_page(page)
        if counter_line not in self._fetched_counter_lines:
            self._fetched_counter_lines.add(counter_line)
            self.meter.nvm_read(counter_line, counter=True)

    def _charge_aes(self, n: int = 1) -> None:
        if self.meter is not None:
            self.meter.aes(n)

    def _charge_write(self, line: int) -> None:
        if self.meter is not None:
            self.meter.nvm_write(line)

    # ------------------------------------------------------------------
    # Counter reconstruction
    # ------------------------------------------------------------------

    def _counter_line_of_page(self, page: int) -> int:
        return self.amap.n_lines + page

    def _parse_counter_region(self) -> None:
        # Bounded above: lines past ``base + n_pages`` belong to the
        # integrity-tree node region, not to any page's counter block.
        base = self.amap.n_lines
        limit = base + self.amap.n_pages
        for line, payload in self._nvm.items():
            if base <= line < limit:
                self._blocks[line - base] = CounterBlock.from_bytes(payload)

    def counter_block(self, page: int) -> CounterBlock:
        """The persisted counter block of ``page`` (zeros if never written)."""
        block = self._blocks.get(page)
        if block is None:
            block = CounterBlock()
            self._blocks[page] = block
        return block

    def counter_of_line(self, line: int) -> int:
        """Decryption counter of ``line``, honouring an in-flight RSR."""
        page = self.amap.page_of_line(line)
        slot = self.amap.line_in_page(line)
        self._charge_counter_fetch(page)
        block = self.counter_block(page)
        rsr = self.image.rsr
        if rsr is not None and rsr.page == page:
            new_major = rsr.old_major + 1
            if rsr.done[slot]:
                return (new_major << MINOR_BITS) | block.minors[slot]
            return (rsr.old_major << MINOR_BITS) | block.minors[slot]
        return block.encryption_counter(slot)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def plaintext_of(self, line: int) -> bytes:
        """Decrypted content of ``line``; never-written lines read zero.

        Note this *always* returns bytes: with a stale or lost counter the
        result is garbage, not an error — exactly like real hardware. The
        experiments detect inconsistency by comparing against the shadow
        plaintext the workload tracked.
        """
        replayed = self._overlay.get(line)
        if replayed is not None:
            return replayed
        # Recovery cannot know a line is empty without fetching it: the
        # read (and, when encrypted, the pad derivation) is billed whether
        # or not an image exists — this is what makes a log *region* scan
        # cost its full size, not just its occupied prefix.
        self._charge_read(line)
        ciphertext = self._nvm.get(line)
        if self.cipher is None:
            return ciphertext if ciphertext is not None else ZERO_LINE
        self._charge_aes()
        counter = self.counter_of_line(line)
        if ciphertext is None:
            return ZERO_LINE
        return self.cipher.decrypt(line, counter, ciphertext)

    # ------------------------------------------------------------------
    # Integrity-tree rebuild (Scheme.SUPERMEM_BMT)
    # ------------------------------------------------------------------

    def rebuild_integrity_tree(self) -> Tuple[int, int, bytes]:
        """Rebuild the Bonsai counter tree from the persisted counter region.

        A crash drops every dirty node of the on-chip tree cache, so the
        NVM node region is stale; the tree is reconstructed bottom-up from
        the counter lines that *are* persisted (write-through guarantees
        they all are). Each persisted counter line costs one bank read
        plus one leaf hash; each distinct touched ancestor (and the root)
        costs one hash. The rebuilt tree is kept on ``self.rebuilt_tree``
        so audits can :meth:`~repro.crypto.integrity.MerkleCounterTree.
        verify_path` individual leaves.

        Returns ``(leaves_rebuilt, nodes_rehashed, root)``; the caller
        compares ``root`` against ``DurableImage.tree_root``.
        """
        from repro.crypto.integrity import MerkleCounterTree
        from repro.crypto.tree_timed import TreeGeometry

        n_pages = self.amap.n_pages
        base = self.amap.n_lines
        tree = MerkleCounterTree(n_pages)
        geom = TreeGeometry(n_pages)
        touched_ancestors: Set[int] = set()
        leaves = 0
        for line in sorted(self._nvm):
            if not base <= line < base + n_pages:
                continue
            page = line - base
            if self.meter is not None:
                self.meter.nvm_read(line, counter=True)
            tree.update_leaf(page, self._nvm[line])
            leaves += 1
            touched_ancestors.update(geom.ancestors(page))
        # A bottom-up rebuild hashes every touched internal node exactly
        # once (memoised), plus the root register.
        nodes_rehashed = len(touched_ancestors) + 1
        if self.meter is not None:
            self.meter.hash(leaves + nodes_rehashed)
        self.rebuilt_tree = tree
        return leaves, nodes_rehashed, tree.root

    # ------------------------------------------------------------------
    # RSR resume (finish an interrupted page re-encryption)
    # ------------------------------------------------------------------

    def resume_reencryption(self) -> int:
        """Complete the page re-encryption the crash interrupted.

        Returns the number of lines that were re-encrypted during resume
        (0 when no RSR was in flight). Afterwards every line of the page
        is encrypted under the new major counter and the RSR is cleared.
        """
        rsr = self.image.rsr
        if rsr is None:
            return 0
        if self.cipher is None:
            raise SimulationError("RSR present on an unencrypted system")
        page = rsr.page
        self._charge_counter_fetch(page)
        block = self.counter_block(page)
        new_major = rsr.old_major + 1
        resumed = 0
        pending = []
        for slot in rsr.pending_slots():
            line = self.amap.lines_of_page(page)[slot]
            old_counter = (rsr.old_major << MINOR_BITS) | block.minors[slot]
            pending.append((slot, line, old_counter, self._nvm.get(line)))
        # Batch all old-counter pad derivations for the pending scan up
        # front (one engine dispatch instead of per-line); the meter
        # charges below still land per line, in the original order.
        plain_iter = iter(
            self.cipher.decrypt_lines(
                (line, ctr, ct) for _, line, ctr, ct in pending if ct is not None
            )
        )
        for slot, line, old_counter, ciphertext in pending:
            if ciphertext is None:
                plaintext = ZERO_LINE
            else:
                self._charge_read(line)
                self._charge_aes()
                plaintext = next(plain_iter)
            block.minors[slot] = 0
            new_counter = new_major << MINOR_BITS
            self._charge_aes()
            self._nvm[line] = self.cipher.encrypt(line, new_counter, plaintext)
            self._charge_write(line)
            rsr.mark_done(slot)
            resumed += 1
        block.major = new_major
        self._nvm[self._counter_line_of_page(page)] = block.to_bytes()
        self._charge_write(self._counter_line_of_page(page))
        self.image.rsr = None
        return resumed

    # ------------------------------------------------------------------
    # Log replay installation
    # ------------------------------------------------------------------

    def apply_replay(self, report) -> int:
        """Install a log replay's restored view over the durable image.

        ``report`` is the :class:`~repro.txn.transaction.RecoveryReport`
        of :func:`~repro.txn.transaction.recover_data_view`: its ``view``
        holds every line the undo/redo replay rewrote. Each installed
        line is billed one pad derivation plus one NVM line write (the
        replay must persist the restored data); subsequent
        :meth:`plaintext_of` reads of an installed line are free — the
        restored plaintext sits in recovery SRAM.

        Returns the number of lines installed.
        """
        installed = 0
        for line in sorted(report.view):
            self._overlay[line] = report.view[line]
            self._charge_aes()
            self._charge_write(line)
            installed += 1
        return installed

    # ------------------------------------------------------------------
    # Consistency audit
    # ------------------------------------------------------------------

    def audit_against_shadow(self, shadow: Dict[int, bytes]) -> Dict[int, bytes]:
        """Compare recovered plaintext with expected content.

        Parameters
        ----------
        shadow:
            ``line -> expected plaintext`` tracked by the experiment.

        Returns
        -------
        dict
            The subset of lines whose recovered plaintext differs —
        empty means the durable state is fully consistent.
        """
        mismatches: Dict[int, bytes] = {}
        for line, expected in shadow.items():
            got = self.plaintext_of(line)
            if got != expected:
                mismatches[line] = got
        return mismatches
