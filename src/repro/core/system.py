"""The secure persistent memory system (controller-side façade).

:class:`SecureMemorySystem` is what sits below the CPU caches: it receives
*persist* requests (clwb write-backs and dirty LLC evictions) and *read*
requests (LLC misses), and orchestrates the counter-mode encryption
machinery around the memory controller:

Write path (encrypted, write-through — Sections 3.2 and Figure 7)
    1. bump the line's minor counter (page re-encryption on overflow);
    2. touch the counter cache; a miss first fetches the counter line from
       NVM (a bank read);
    3. generate the OTP (AES latency) and encrypt the line while holding
       data and counter in the **atomicity register**;
    4. append the encrypted line *and* its counter line to the write queue
       as one unit — either both become durable (ADR) or neither.
    With the register disabled (the broken Figure 6 baseline) the counter
    is appended before encryption completes, opening the crash window the
    crash tests exploit.

Write path (write-back counter cache — the WB baseline)
    The counter line is updated dirty in the cache; only the data line is
    appended. Dirty evictions emit counter writes.

Read path (Figure 2b/3)
    The OTP is generated in parallel with the data read when the counter
    cache hits; a miss serialises counter fetch before the AES latency.

All timing flows through the controller; all functional content lives in
the controller's NVM store, so a crash can be modelled by flushing the ADR
domain and discarding SRAM.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common.address import AddressMap, CACHE_LINE_SIZE
from repro.common.config import SimConfig
from repro.common.errors import SimulationError
from repro.common.stats import Stats
from repro.cache.counter_cache import CounterCache
from repro.cache.tree_cache import TreeNodeCache
from repro.crypto.counters import CounterBlock, MonolithicCounterBlock
from repro.crypto.integrity import MerkleCounterTree
from repro.crypto.otp import LineCipher
from repro.crypto.tree_timed import TreeGeometry
from repro.core.crash import CrashController, DurableImage
from repro.core.reencrypt import RSRRecord
from repro.memory.controller import MemoryController
from repro.memory.layout import make_layout
from repro.memory.nvm import ZERO_LINE
from repro.memory.write_queue import WQEntry
from repro.obs.tracer import NULL_TRACER


def _line_mac(plaintext: bytes) -> bytes:
    """8-byte check value over a line's plaintext.

    Stands in for the ECC bits Osiris repurposes as a counter-recovery
    sanity check: computed pre-encryption, stored with the line, and
    matched during trial decryption.
    """
    import hashlib

    return hashlib.sha256(b"ecc" + plaintext).digest()[:8]


class CounterStore:
    """Authoritative current counter values (split or monolithic).

    This is the union view of counter cache + NVM: the *current* counters
    the hardware would use. What subset of it survives a crash is decided
    by the write policy (write-through persists every update; write-back
    only what was evicted or battery-flushed).
    """

    def __init__(self, organization: str = "split", minor_bits: int = 7):
        if organization not in ("split", "monolithic"):
            raise SimulationError(f"unknown counter organization {organization!r}")
        self.organization = organization
        self._minor_bits = minor_bits
        self._blocks: Dict[int, object] = {}

    @property
    def lines_per_block(self) -> int:
        if self.organization == "split":
            return 64
        return MonolithicCounterBlock.LINES_PER_BLOCK

    def block_key_of_line(self, line: int) -> int:
        return line // self.lines_per_block

    def slot_of_line(self, line: int) -> int:
        return line % self.lines_per_block

    def block(self, key: int):
        blk = self._blocks.get(key)
        if blk is None:
            if self.organization == "split":
                blk = CounterBlock(minor_bits=self._minor_bits)
            else:
                blk = MonolithicCounterBlock()
            self._blocks[key] = blk
        return blk

    def counter_of_line(self, line: int) -> int:
        return self.block(self.block_key_of_line(line)).encryption_counter(
            self.slot_of_line(line)
        )

    def bump(self, line: int) -> Tuple[int, int, bool]:
        """Advance the counter of ``line`` for a new write.

        Returns ``(block_key, slot, overflowed)``; when ``overflowed`` the
        caller must re-encrypt the block's page before retrying.
        """
        key = self.block_key_of_line(line)
        slot = self.slot_of_line(line)
        overflowed = self.block(key).bump(slot)
        return key, slot, overflowed

    def serialize_block(self, key: int) -> bytes:
        return self.block(key).to_bytes()

    def load_block(self, key: int, image: bytes) -> None:
        """Install a block parsed from an NVM counter-line image."""
        if self.organization == "split":
            self._blocks[key] = CounterBlock.from_bytes(
                image, minor_bits=self._minor_bits
            )
        else:
            self._blocks[key] = MonolithicCounterBlock.from_bytes(image)

    def known_blocks(self) -> Dict[int, object]:
        return dict(self._blocks)


class SecureMemorySystem:
    """Everything below the CPU caches, for one scheme configuration."""

    def __init__(
        self,
        config: SimConfig,
        stats: Optional[Stats] = None,
        crash: Optional[CrashController] = None,
        counter_organization: str = "split",
        tracer=NULL_TRACER,
    ):
        self.config = config
        self.stats = stats if stats is not None else Stats()
        self.tracer = tracer
        self.crash_ctl = crash if crash is not None else CrashController()
        self.amap: AddressMap = config.address_map()
        self.controller = MemoryController(config, self.stats, tracer=tracer)
        self.counters = CounterStore(
            organization=counter_organization,
            minor_bits=config.minor_counter_bits,
        )
        self.counter_cache = CounterCache(
            config.counter_cache, self.stats, tracer=tracer
        )
        if tracer.enabled:
            tracer.register_gauge(
                "cc.hit_rate",
                lambda ts: self.stats.ratio("cc", "hits", "accesses"),
                track="cc",
            )
        self.layout = make_layout(
            config.counter_placement, self.amap, xbank_offset=config.xbank_offset
        )
        self.cipher: Optional[LineCipher] = (
            LineCipher() if (config.encrypted and config.functional) else None
        )
        # Per-op hoists: SimConfig is frozen, so these cannot drift. aes_ns
        # is a TimingConfig property (a division per call) and the stat keys
        # below are bumped two-plus times per persist/read.
        self._functional = config.functional
        self._aes_ns = config.timing.aes_ns
        self._encrypted = config.encrypted
        self._cc_write_through = self.counter_cache.write_through
        self._atomicity_register = config.atomicity_register
        self._sca_mode = config.sca_mode
        self._osiris_stop_loss = config.osiris_stop_loss
        self._vals = self.stats.raw()
        self._k_data_writes = ("secmem", "data_writes")
        self._k_data_reads = ("secmem", "data_reads")
        self._k_cc_read_accesses = ("cc", "read_accesses")
        self._k_cc_read_hits = ("cc", "read_hits")
        # Integrity layer (the SuperMem+BMT scheme): a timed Bonsai
        # Merkle counter tree updated through a write-back node cache
        # with coalesced ancestor updates, plus per-line MAC latency.
        self._integrity_tree = config.integrity_tree
        self._hash_ns = config.timing.hash_ns
        self._n_banks = config.memory.n_banks
        self.tree_cache: Optional[TreeNodeCache] = None
        self._tree_geom: Optional[TreeGeometry] = None
        #: Functional shadow of the on-chip tree state: tracks the root
        #: the hardware would hold after every persisted counter write.
        #: Timing-fidelity runs skip it (no payload bytes to hash) while
        #: charging identical latencies.
        self._it_shadow: Optional[MerkleCounterTree] = None
        if config.integrity_tree:
            if not config.encrypted:
                raise SimulationError("integrity_tree requires encryption")
            if not self._cc_write_through:
                raise SimulationError(
                    "integrity_tree requires write-through counters "
                    "(the tree authenticates the persisted counter region)"
                )
            self.tree_cache = TreeNodeCache(config.tree_cache, self.stats)
            self._tree_geom = TreeGeometry(self.amap.n_pages, amap=self.amap)
            if config.functional:
                self._it_shadow = MerkleCounterTree(self.amap.n_pages)
        self._k_mac_writes = ("it", "mac_writes")
        self._k_mac_verifies = ("it", "mac_verifies")
        self._k_node_fetches = ("it", "node_fetches")
        self._k_path_verifies = ("it", "path_verifies")
        #: In-flight page re-encryption (None when idle).
        self.rsr: Optional[RSRRecord] = None
        #: Osiris stop-loss bookkeeping: updates per counter block since
        #: the last persisted counter write.
        self._osiris_updates: Dict[int, int] = {}
        self._dead = False

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _check_alive(self) -> None:
        if self._dead:
            raise SimulationError("memory system used after crash()")

    def _counter_entry(
        self, line: int, block_key: int, payload_wanted: bool
    ) -> WQEntry:
        """Build the write-queue entry for a counter-line write."""
        data_bank = self.amap.bank_of_line(line)
        placement = self.layout.placement(block_key, data_bank)
        payload = (
            self.counters.serialize_block(block_key) if payload_wanted else None
        )
        return WQEntry(
            line=placement.line,
            bank=placement.bank,
            row=placement.row,
            is_counter=True,
            enq_time=0.0,
            payload=payload,
        )

    def _data_entry(
        self, line: int, payload: Optional[bytes], core: int
    ) -> WQEntry:
        return WQEntry(
            line=line,
            bank=self.amap.bank_of_line(line),
            row=self.amap.row_of_line(line),
            is_counter=False,
            enq_time=0.0,
            payload=payload,
            core=core,
        )

    def _encrypt(self, line: int, payload: Optional[bytes]) -> Optional[bytes]:
        if payload is None or self.cipher is None:
            return payload
        return self.cipher.encrypt(line, self.counters.counter_of_line(line), payload)

    def _fetch_counter_line(self, t: float, line: int, block_key: int) -> float:
        """Counter-cache miss: read the counter line from NVM."""
        placement = self.layout.placement(block_key, self.amap.bank_of_line(line))
        finish = self.controller.read(
            t, placement.line, bank=placement.bank, row=placement.row
        )
        self.stats.inc("secmem", "counter_fetches")
        if self.tracer.enabled:
            self.tracer.cc_fetch(t, placement.line)
        return finish

    # ------------------------------------------------------------------
    # Integrity tree (SuperMem+BMT): timed coalesced update/verify walks
    # ------------------------------------------------------------------
    #
    # The write path climbs leaf→root through the node cache and stops
    # at the first *dirty* cached ancestor — its pending rehash will
    # fold this update in (Freij et al.'s update coalescing). The read
    # path verifies an NVM-fetched counter block upward until a cached
    # (hence already-verified) node or the root register is reached.
    # Both walks are payload-free: timing and full fidelity execute the
    # identical float/stat sequence.

    def _tree_update(self, t: float, block_key: int, core: int) -> float:
        """Coalesced leaf→root update walk; returns its completion time."""
        cache = self.tree_cache
        geom = self._tree_geom
        vals = self._vals
        controller = self.controller
        t_it = t + self._hash_ns  # rehash the leaf (counter block)
        for node in geom.ancestors(block_key):
            if cache.is_dirty(node):
                cache.note_coalesced()
                return t_it
            hit, writeback, fetch = cache.access(node, update=True)
            if fetch:
                line, bank, row = geom.placement(node, self._n_banks)
                finish = controller.read(t_it, line, bank=bank, row=row)
                if finish > t_it:
                    t_it = finish
                vals[self._k_node_fetches] += 1
            if writeback is not None:
                wline, wbank, wrow = geom.placement(writeback, self._n_banks)
                controller.append_write(t_it, wline, wbank, wrow, True, None, core)
            t_it += self._hash_ns  # rehash this ancestor
        return t_it + self._hash_ns  # root register rehash

    def _tree_verify(self, t: float, block_key: int, core: int) -> float:
        """Verify an NVM-fetched counter block against the tree."""
        cache = self.tree_cache
        geom = self._tree_geom
        vals = self._vals
        controller = self.controller
        vals[self._k_path_verifies] += 1
        t += self._hash_ns  # hash the fetched counter block
        for node in geom.ancestors(block_key):
            hit, writeback, fetch = cache.access(node, update=False)
            if hit:
                return t  # cached nodes are already verified — trusted stop
            line, bank, row = geom.placement(node, self._n_banks)
            finish = controller.read(t, line, bank=bank, row=row)
            if finish > t:
                t = finish
            vals[self._k_node_fetches] += 1
            if writeback is not None:
                wline, wbank, wrow = geom.placement(writeback, self._n_banks)
                controller.append_write(t, wline, wbank, wrow, True, None, core)
            t += self._hash_ns  # verify hash at this level
        return t  # reached the root register; the compare is free

    # ------------------------------------------------------------------
    # Persist path (clwb write-backs and dirty LLC evictions)
    # ------------------------------------------------------------------
    #
    # persist_line and read_line are the one memory chain every run
    # drives — untraced, traced, sampled, or crash-armed alike. Tracer
    # emissions sit behind ``if self.tracer.enabled:`` and crash probes
    # are always called, so observing a run never swaps in other code.

    def persist_line(
        self,
        t: float,
        line: int,
        payload: Optional[bytes] = None,
        core: int = 0,
        persistent: bool = True,
    ) -> float:
        """Persist one dirty line arriving at the memory controller.

        ``persistent`` distinguishes explicit flushes (clwb — the write
        matters for crash consistency) from plain cache evictions; only
        the SCA scheme treats them differently (counter-atomic pair vs
        data-only append).

        Returns the durability time: when the line (plus its counter under
        write-through) entered the ADR domain.
        """
        if self._dead:
            raise SimulationError("memory system used after crash()")
        self._vals[self._k_data_writes] += 1
        controller = self.controller
        crash_ctl = self.crash_ctl

        if not self._encrypted:
            durable = controller.append_write(t, line, payload=payload, core=core)
            crash_ctl.probe("after-data-append")
            return durable

        # 1. advance the counter; handle minor overflow by re-encrypting.
        block_key, slot, overflowed = self.counters.bump(line)
        if overflowed:
            t = self.reencrypt_page(t, self.amap.page_of_line(line), core)
            block_key, slot, overflowed = self.counters.bump(line)
            if overflowed:  # pragma: no cover - fresh minors cannot saturate
                raise SimulationError("minor counter overflowed after re-encryption")

        # 2. counter cache (read-modify-write of the counter line).
        hit, writeback_page, fetch = self.counter_cache.access(
            block_key, update=True, t=t
        )
        if fetch:
            fetched = self._fetch_counter_line(t, line, block_key)
            if fetched > t:
                t = fetched
        if writeback_page is not None:
            # Write-back mode: a dirty victim leaves the cache.
            victim = self._counter_entry(
                line=writeback_page * self.counters.lines_per_block,
                block_key=writeback_page,
                payload_wanted=self._functional,
            )
            controller.append_write(
                t, victim.line, victim.bank, victim.row, True, victim.payload, core
            )

        # 3. OTP generation + encryption (AES pipeline latency).
        ciphertext = self._encrypt(line, payload)
        t_enc = t + self._aes_ns
        if self.tracer.enabled:
            self.tracer.crypto(t, self._aes_ns, "otp_write", line)

        # 4. persist.
        if self._cc_write_through:
            if self._integrity_tree:
                # Tree walk starts once the counter is resolved; the line
                # MAC (over the ciphertext) follows the AES pipeline. The
                # pair becomes durable only when both are done — strictly
                # additive over plain SuperMem.
                t_it = self._tree_update(t, block_key, core)
                t_ready = t_enc + self._hash_ns
                if t_it > t_ready:
                    t_ready = t_it
                self._vals[self._k_mac_writes] += 1
            else:
                t_ready = t_enc
            counter_entry = self._counter_entry(
                line, block_key, payload_wanted=self._functional
            )
            if self._it_shadow is not None and counter_entry.payload is not None:
                self._it_shadow.update_leaf(block_key, counter_entry.payload)
            if self._atomicity_register:
                # Figure 7: both staged, both appended as one unit.
                durable = controller.append_pair(
                    t_ready, self._data_entry(line, ciphertext, core), counter_entry
                )
                crash_ctl.probe("after-pair-append")
            else:
                # Figure 6 (broken baseline): the counter is appended while
                # the data is still being encrypted — the crash window.
                controller.append_write(
                    t,
                    counter_entry.line,
                    counter_entry.bank,
                    counter_entry.row,
                    True,
                    counter_entry.payload,
                    core,
                )
                crash_ctl.probe(
                    "wt-no-register-gap",
                    detail=f"counter of line {line:#x} durable, data not",
                )
                durable = controller.append_write(
                    t_ready, line, payload=ciphertext, core=core
                )
                crash_ctl.probe("after-data-append")
        elif self._sca_mode and persistent:
            # SCA: persistent (clwb-originated) writes carry their counter
            # into the ADR domain atomically; the cached copy is then
            # clean. Evictions fall through to the data-only path below.
            counter_entry = self._counter_entry(
                line, block_key, payload_wanted=self._functional
            )
            durable = controller.append_pair(
                t_enc, self._data_entry(line, ciphertext, core), counter_entry
            )
            self.counter_cache.mark_clean(block_key)
            self.stats.inc("secmem", "sca_pairs")
            crash_ctl.probe("after-pair-append")
        else:
            # Write-back counter cache: data only; counter stays dirty.
            durable = controller.append_write(
                t_enc, line, payload=ciphertext, core=core
            )
            crash_ctl.probe("after-data-append")
            if self._osiris_stop_loss > 0:
                self._osiris_tick(t_enc, line, block_key, core)

        if self._osiris_stop_loss > 0 and self._functional and payload is not None:
            # ECC/MAC check bits travel with the line (recovery oracle).
            controller.nvm.set_mac(line, _line_mac(payload))

        return durable

    def _osiris_tick(self, t: float, line: int, block_key: int, core: int) -> None:
        """Osiris stop-loss: persist the counter line every N-th update.

        Called only when the stop-loss interval is positive.
        """
        count = self._osiris_updates.get(block_key, 0) + 1
        if count >= self._osiris_stop_loss:
            count = 0
            entry = self._counter_entry(
                line, block_key, payload_wanted=self.config.functional
            )
            self.controller.append_write(
                t,
                entry.line,
                bank=entry.bank,
                row=entry.row,
                is_counter=True,
                payload=entry.payload,
                core=core,
            )
            self.counter_cache.mark_clean(block_key)
            self.stats.inc("secmem", "osiris_stop_loss_writes")
        self._osiris_updates[block_key] = count

    # ------------------------------------------------------------------
    # Read path (LLC misses)
    # ------------------------------------------------------------------

    def read_line(self, t: float, line: int, core: int = 0) -> float:
        """Service an LLC-miss read; returns its finish time.

        Timing only: callers that want the line's plaintext call
        :meth:`functional_read_plaintext`, which has no side effects.
        """
        if self._dead:
            raise SimulationError("memory system used after crash()")
        vals = self._vals
        vals[self._k_data_reads] += 1
        data_finish = self.controller.read(t, line)

        if not self._encrypted:
            return data_finish

        block_key = self.counters.block_key_of_line(line)
        hit, writeback_page, fetch = self.counter_cache.access(
            block_key, update=False, t=t
        )
        # Read-path hit rate tracked separately: these are the hits that
        # decide whether OTP generation overlaps the data fetch (Fig. 2b),
        # i.e. the hit rate Figure 17a is about.
        vals[self._k_cc_read_accesses] += 1
        if hit:
            vals[self._k_cc_read_hits] += 1
        if fetch:
            # Counter fetch runs in parallel with the data read, but the
            # OTP can only be generated once the counter arrives.
            ctr_ready = self._fetch_counter_line(t, line, block_key)
            if self._integrity_tree:
                # A counter from NVM is untrusted until its tree path
                # reaches a cached (trusted) ancestor or the root.
                ctr_ready = self._tree_verify(ctr_ready, block_key, core)
        else:
            ctr_ready = t
        if writeback_page is not None:
            victim = self._counter_entry(
                line=writeback_page * self.counters.lines_per_block,
                block_key=writeback_page,
                payload_wanted=self._functional,
            )
            self.controller.append_write(
                t, victim.line, victim.bank, victim.row, True, victim.payload, core
            )

        pad_ready = ctr_ready + self._aes_ns
        if self.tracer.enabled:
            self.tracer.crypto(ctr_ready, self._aes_ns, "otp_read", line)
        finish = data_finish if data_finish > pad_ready else pad_ready
        if self._integrity_tree:
            # Line-MAC check over the fetched ciphertext.
            finish += self._hash_ns
            vals[self._k_mac_verifies] += 1
        return finish

    # Names bench/layers.py (the benchmark's per-layer table) still lists;
    # it is their only reader, and they go when that table drops them.
    persist_line_fast = persist_line
    read_line_fast = read_line

    def functional_read_plaintext(self, line: int) -> bytes:
        """Current plaintext of ``line`` (never-written lines read zero)."""
        entry = self.controller.wq.find_line(line)
        if entry is None and not self.controller.nvm.contains(line):
            return ZERO_LINE
        ciphertext = self.controller.read_payload(line)
        if self.cipher is None:
            return ciphertext
        return self.cipher.decrypt(
            line, self.counters.counter_of_line(line), ciphertext
        )

    # ------------------------------------------------------------------
    # Page re-encryption (Section 3.4.4)
    # ------------------------------------------------------------------

    def reencrypt_page(self, t: float, page: int, core: int = 0) -> float:
        """Re-encrypt every line of ``page`` under a bumped major counter.

        Each line goes through the regular persist sequence (Figure 7), so
        consistency, CWC and XBank all apply. The RSR tracks progress and
        is probed per line so crash experiments can interrupt mid-way.
        ``core`` is the core whose persist overflowed the minor counter.
        """
        self._check_alive()
        if self.counters.organization != "split":
            raise SimulationError("re-encryption applies to split counters only")
        self.stats.inc("secmem", "page_reencryptions")

        block = self.counters.block(page)
        # Capture plaintexts under the OLD counters before resetting them.
        plaintexts: Dict[int, Optional[bytes]] = {}
        lines = self.amap.lines_of_page(page)
        if self.config.functional and self.cipher is not None:
            for slot, line in enumerate(lines):
                plaintexts[slot] = self.functional_read_plaintext(line)

        old_major = block.start_reencryption()
        self.rsr = RSRRecord(page=page, old_major=old_major)

        for slot, line in enumerate(lines):
            # read the old ciphertext (bank read)...
            t = self.controller.read(t, line)
            # ...reset this line's minor and re-encrypt under the fresh
            # counter; pending slots keep their old minors so a crash here
            # stays recoverable via the RSR.
            block.reset_minor(slot)
            ciphertext = None
            if self.config.functional and self.cipher is not None:
                plaintext = plaintexts[slot]
                if plaintext is not None:
                    ciphertext = self.cipher.encrypt(
                        line, block.encryption_counter(slot), plaintext
                    )
            t_enc = t + self.config.timing.aes_ns
            if self.tracer.enabled:
                self.tracer.crypto(t, self.config.timing.aes_ns, "otp_write", line)
            if self._integrity_tree:
                # Counter mutated — the tree path must absorb it (the
                # first line dirties the ancestors; the rest coalesce).
                t_it = self._tree_update(t, page, core)
                t_ready = t_enc + self._hash_ns
                if t_it > t_ready:
                    t_ready = t_it
                self._vals[self._k_mac_writes] += 1
            else:
                t_ready = t_enc
            counter_entry = self._counter_entry(
                line, page, payload_wanted=self.config.functional
            )
            if self._it_shadow is not None and counter_entry.payload is not None:
                self._it_shadow.update_leaf(page, counter_entry.payload)
            data_entry = self._data_entry(line, ciphertext, core)
            if self.counter_cache.write_through:
                t = self.controller.append_pair(t_ready, data_entry, counter_entry)
            else:
                t = self.controller.append_write(
                    t_enc, line, payload=ciphertext, core=core
                )
            self.rsr.mark_done(slot)
            self.crash_ctl.probe("reencrypt-line-done", detail=f"page {page} slot {slot}")

        # Write-back mode: the block image in the cache is now dirty.
        if not self.counter_cache.write_through:
            self.counter_cache.access(page, update=True, t=t)
        self.rsr = None
        return t

    # ------------------------------------------------------------------
    # Crash / shutdown
    # ------------------------------------------------------------------

    def crash(self) -> DurableImage:
        """Power failure: return what survives; the system becomes unusable."""
        self._check_alive()
        # 1. Ideal write-back: the battery flushes dirty counter lines.
        flushed_pages, lost_pages = self.counter_cache.crash()
        for page in flushed_pages:
            entry = self._counter_entry(
                line=page * self.counters.lines_per_block,
                block_key=page,
                payload_wanted=self.config.functional,
            )
            self.controller.nvm.write_line(entry.line, entry.payload)
        self.stats.inc("secmem", "crash_lost_counter_lines", len(lost_pages))
        # 2. Dirty tree nodes die with the SRAM (no battery): safe, the
        #    tree is rebuilt from the persisted counter region.
        if self.tree_cache is not None:
            lost_nodes = self.tree_cache.crash()
            self.stats.inc("secmem", "crash_lost_tree_nodes", len(lost_nodes))
        # 3. The ADR battery drains the write queue.
        self.controller.adr_flush()
        # 4. Snapshot.
        image = DurableImage(
            nvm=self.controller.nvm.snapshot(),
            rsr=(
                self.rsr.copy()
                if (self.rsr is not None and self.config.rsr_adr)
                else None
            ),
            config=self.config,
            macs=self.controller.nvm.snapshot_macs(),
            tree_root=(
                self._it_shadow.root if self._it_shadow is not None else None
            ),
        )
        self._dead = True
        return image

    def orderly_shutdown(self) -> DurableImage:
        """Clean shutdown: drain dirty counters and the queue, then image."""
        self._check_alive()
        for page in self.counter_cache.drain_dirty():
            entry = self._counter_entry(
                line=page * self.counters.lines_per_block,
                block_key=page,
                payload_wanted=self.config.functional,
            )
            self.controller.append_write(
                self.controller.clock,
                entry.line,
                bank=entry.bank,
                row=entry.row,
                is_counter=True,
                payload=entry.payload,
            )
        if self.tree_cache is not None and self._tree_geom is not None:
            for node in self.tree_cache.drain_dirty():
                wline, wbank, wrow = self._tree_geom.placement(
                    node, self._n_banks
                )
                self.controller.append_write(
                    self.controller.clock,
                    wline,
                    bank=wbank,
                    row=wrow,
                    is_counter=True,
                    payload=None,
                )
        self.controller.drain_all()
        image = DurableImage(
            nvm=self.controller.nvm.snapshot(),
            rsr=None,
            config=self.config,
            macs=self.controller.nvm.snapshot_macs(),
            tree_root=(
                self._it_shadow.root if self._it_shadow is not None else None
            ),
        )
        self._dead = True
        return image

    def drain(self) -> float:
        """Drain the write queue; returns the last completion time."""
        self._check_alive()
        return self.controller.drain_all()

    def checkpoint_counters(self) -> int:
        """Persist every dirty counter line to NVM (write-back mode).

        Models a quiescent point long after earlier writes: their counters
        have been evicted (or scrubbed) to NVM, which is the premise of
        the paper's Table 1 prepare-stage row — pre-transaction data and
        counters are durable and correct. No-op for write-through caches.
        Returns the number of counter lines persisted.
        """
        self._check_alive()
        dirty = self.counter_cache.drain_dirty()
        for page in dirty:
            entry = self._counter_entry(
                line=page * self.counters.lines_per_block,
                block_key=page,
                payload_wanted=self.config.functional,
            )
            self.controller.append_write(
                self.controller.clock,
                entry.line,
                bank=entry.bank,
                row=entry.row,
                is_counter=True,
                payload=entry.payload,
            )
        self.controller.drain_all()
        return len(dirty)
