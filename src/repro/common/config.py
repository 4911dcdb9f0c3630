"""Configuration dataclasses mirroring the paper's Table 2.

The defaults reproduce the evaluated system:

=====================  =====================================================
Processor              8 cores, x86-64, 2 GHz
Private L1 cache       32 KB, 8-way, LRU, 2-cycle latency
Private L2 cache       512 KB, 8-way, LRU, 16-cycle latency
Shared L3 cache        4 MB, 8-way, LRU, 30-cycle latency
Main memory            8 GB PCM, 8 banks
PCM latency model      tRCD/tCL/tCWD/tFAW/tWTR/tWR = 48/15/13/50/7.5/300 ns
Write queue            32 entries
Counter cache          256 KB, 8-way, LRU, 8-cycle latency
AES engine             24-cycle pipelined encryption latency
=====================  =====================================================

Only the NVM *capacity* defaults smaller than the paper's 8 GB (the pure
Python functional store would otherwise be needlessly large); every
experiment scales workload footprints with capacity so the ratios that drive
the results (footprint vs. counter-cache reach, footprint vs. bank count)
are preserved. Pass ``capacity=8 << 30`` for paper-scale geometry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.address import AddressMap, CACHE_LINE_SIZE, PAGE_SIZE
from repro.common.errors import ConfigError


class CounterCacheMode(enum.Enum):
    """Write policy of the on-controller counter cache.

    ``WRITE_THROUGH``
        Every counter update is immediately appended to the NVM write queue
        (SuperMem's policy, Section 3.2). Crash consistency is structural.
    ``WRITE_BACK``
        Counter lines are written to NVM only on dirty eviction. Used for
        the paper's *ideal* WB baseline, which additionally assumes a
        battery large enough to flush the whole counter cache on a failure
        (``battery_backed=True`` in :class:`CounterCacheConfig`).
    """

    WRITE_THROUGH = "write-through"
    WRITE_BACK = "write-back"


class CounterPlacementPolicy(enum.Enum):
    """Where the counter line of a data page is stored (paper Figure 8)."""

    #: All counter lines in one dedicated bank (Fig. 8a, baseline).
    SINGLE_BANK = "single-bank"
    #: Counter line in the same bank as its data page (Fig. 8b).
    SAME_BANK = "same-bank"
    #: Counter line in bank ``(data_bank + n_banks // 2) % n_banks``
    #: (Fig. 8c, SuperMem's XBank scheme).
    XBANK = "xbank"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one set-associative SRAM cache."""

    size: int
    assoc: int
    latency_cycles: int
    line_size: int = CACHE_LINE_SIZE

    def __post_init__(self) -> None:
        if self.size <= 0 or self.assoc <= 0:
            raise ConfigError(f"cache size/assoc must be positive: {self}")
        if self.size % (self.assoc * self.line_size) != 0:
            raise ConfigError(
                f"cache size {self.size} not divisible by assoc*line "
                f"({self.assoc}*{self.line_size})"
            )
        if self.latency_cycles < 0:
            raise ConfigError(f"latency must be >= 0: {self}")

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.size // (self.assoc * self.line_size)

    @property
    def n_lines(self) -> int:
        """Total line capacity."""
        return self.size // self.line_size


@dataclass(frozen=True)
class CounterCacheConfig(CacheConfig):
    """Counter-cache geometry plus its write policy.

    A 256 KB counter cache holds 4096 counter lines, each covering one 4 KB
    page, so its *reach* is 16 MB of data.
    """

    mode: CounterCacheMode = CounterCacheMode.WRITE_THROUGH
    #: Only meaningful for WRITE_BACK: model the paper's "ideal" battery
    #: that flushes all dirty counter lines on a crash.
    battery_backed: bool = False

    @property
    def reach_bytes(self) -> int:
        """Bytes of data whose counters fit in the cache simultaneously."""
        return self.n_lines * PAGE_SIZE


@dataclass(frozen=True)
class TimingConfig:
    """Latency parameters of the simulated machine, in nanoseconds.

    PCM timings follow the paper's latency model (itself from Xu et al.):
    ``tRCD``/``tCL``/``tCWD``/``tFAW``/``tWTR``/``tWR`` =
    48/15/13/50/7.5/300 ns. Reads occupy a bank for ``tRCD + tCL`` on a
    row-buffer miss and ``tCL`` on a hit; writes occupy it for
    ``tRCD + tCWD + tWR`` (the 300 ns PCM cell write dominates — this
    asymmetry is what makes write traffic the bottleneck).
    """

    cpu_freq_ghz: float = 2.0
    trcd_ns: float = 48.0
    tcl_ns: float = 15.0
    tcwd_ns: float = 13.0
    tfaw_ns: float = 50.0
    twtr_ns: float = 7.5
    twr_ns: float = 300.0
    #: AES pipeline latency for one OTP, 24 cycles at 2 GHz = 12 ns.
    aes_cycles: int = 24
    #: Hash-engine latency for one integrity-tree node rehash or MAC
    #: (SHA-like digest over a 64 B block), 80 cycles at 2 GHz = 40 ns.
    #: Only charged when ``SimConfig.integrity_tree`` is enabled.
    hash_cycles: int = 80
    #: Command/bus overhead serialising request issue at the controller.
    bus_ns: float = 2.0
    #: Cost of issuing one clwb (besides any stall on a full write queue).
    clwb_issue_ns: float = 1.0
    #: Cost of an sfence once all prior flushes have been appended.
    sfence_ns: float = 2.5
    #: Fixed per-trace-op CPU "compute" cost outside the memory system.
    cpu_op_ns: float = 1.0

    def __post_init__(self) -> None:
        for name in (
            "cpu_freq_ghz",
            "trcd_ns",
            "tcl_ns",
            "tcwd_ns",
            "tfaw_ns",
            "twtr_ns",
            "twr_ns",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.aes_cycles < 0:
            raise ConfigError("aes_cycles must be >= 0")
        if self.hash_cycles < 0:
            raise ConfigError("hash_cycles must be >= 0")

    def cycles_to_ns(self, cycles: float) -> float:
        """Convert CPU cycles to nanoseconds at the configured frequency."""
        return cycles / self.cpu_freq_ghz

    @property
    def aes_ns(self) -> float:
        """OTP generation latency in nanoseconds."""
        return self.cycles_to_ns(self.aes_cycles)

    @property
    def hash_ns(self) -> float:
        """Integrity-tree node rehash / MAC latency in nanoseconds."""
        return self.cycles_to_ns(self.hash_cycles)

    @property
    def read_service_ns(self) -> float:
        """Bank occupancy of a row-buffer-miss read."""
        return self.trcd_ns + self.tcl_ns

    @property
    def read_hit_service_ns(self) -> float:
        """Bank occupancy of a row-buffer-hit read."""
        return self.tcl_ns

    @property
    def write_service_ns(self) -> float:
        """Bank occupancy of a write (PCM cell write, no row-buffer help)."""
        return self.trcd_ns + self.tcwd_ns + self.twr_ns


@dataclass(frozen=True)
class MemoryConfig:
    """NVM geometry and memory-controller structure."""

    capacity: int = 64 << 20
    n_banks: int = 8
    #: Memory channels: each channel owns an equal share of the banks and
    #: its own command bus, so request issue serialises per channel
    #: rather than globally. The paper's platform is single-channel.
    n_channels: int = 1
    write_queue_entries: int = 32
    #: Write-drain watermarks (entries). The controller lets the queue
    #: fill to ``high`` before draining, then drains down to ``low`` —
    #: standard write-buffering, and the residency window that gives
    #: counter write coalescing its reach. ``None`` = 3/4 and 1/4 of the
    #: queue depth.
    wq_high_watermark: int | None = None
    wq_low_watermark: int | None = None
    #: Write-drain issue order.
    #:
    #: ``"defer-counters"`` (default): FR-FCFS over data writes, with
    #: counter writes yielding to any data write that can start within
    #: ``counter_defer_ns``. This is the scheduling embodiment of the
    #: paper's "delay the counter cache line write for merging more
    #: writes" (Section 3.4.3): counter entries linger at the queue tail
    #: through a flush burst, maximising CWC's coalescing window, and
    #: drain in the gaps.
    #: ``"frfcfs"``: earliest-feasible-start across all writes (ablation —
    #: counters issue eagerly to their idle bank, cutting CWC's reach).
    #: ``"fifo"``: strict append order with head-of-line blocking
    #: (ablation — destroys bank parallelism for page-local bursts).
    drain_policy: str = "defer-counters"
    #: How long a ready counter write waits for an upcoming data write
    #: before claiming the bus (``None`` = one write service time).
    counter_defer_ns: float | None = None
    #: Bank interleaving: "page" (default, the paper's premise), "line",
    #: or "contiguous" (see :class:`repro.common.address.AddressMap`).
    bank_mapping: str = "page"
    row_size: int = PAGE_SIZE
    #: Enable the per-bank row buffer model for reads.
    row_buffer: bool = True
    #: Enforce the four-activate-window (tFAW) rank constraint.
    enforce_tfaw: bool = True
    #: Enforce write-to-read turnaround (tWTR) per bank.
    enforce_twtr: bool = True

    def __post_init__(self) -> None:
        if self.write_queue_entries < 2:
            # The atomicity register appends data+counter as a unit and
            # therefore needs at least two slots.
            raise ConfigError("write queue needs at least 2 entries")
        if self.n_channels < 1 or self.n_banks % self.n_channels != 0:
            raise ConfigError(
                f"n_banks ({self.n_banks}) must divide evenly into "
                f"n_channels ({self.n_channels})"
            )

    def address_map(self) -> AddressMap:
        """Build the :class:`AddressMap` for this geometry."""
        return AddressMap(
            capacity=self.capacity,
            n_banks=self.n_banks,
            row_size=self.row_size,
            bank_mapping=self.bank_mapping,
        )


def _default_l1() -> CacheConfig:
    return CacheConfig(size=32 << 10, assoc=8, latency_cycles=2)


def _default_l2() -> CacheConfig:
    return CacheConfig(size=512 << 10, assoc=8, latency_cycles=16)


def _default_l3() -> CacheConfig:
    return CacheConfig(size=4 << 20, assoc=8, latency_cycles=30)


def _default_counter_cache() -> CounterCacheConfig:
    return CounterCacheConfig(size=256 << 10, assoc=8, latency_cycles=8)


def _default_tree_cache() -> CacheConfig:
    """On-controller integrity-tree node cache (Freij et al. geometry)."""
    return CacheConfig(size=16 << 10, assoc=8, latency_cycles=8)


@dataclass(frozen=True)
class SimConfig:
    """Top-level configuration of one simulated system.

    The scheme-level knobs (``counter_cache.mode``, ``counter_placement``,
    ``cwc_enabled``, ``encrypted``) are normally set through
    :func:`repro.core.schemes.scheme_config` rather than by hand.
    """

    memory: MemoryConfig = field(default_factory=MemoryConfig)
    timing: TimingConfig = field(default_factory=TimingConfig)
    l1: CacheConfig = field(default_factory=_default_l1)
    l2: CacheConfig = field(default_factory=_default_l2)
    l3: CacheConfig = field(default_factory=_default_l3)
    counter_cache: CounterCacheConfig = field(default_factory=_default_counter_cache)
    #: Geometry of the integrity-tree node cache (only instantiated when
    #: ``integrity_tree`` is enabled).
    tree_cache: CacheConfig = field(default_factory=_default_tree_cache)

    #: Whether the NVM is encrypted at all (False = the paper's Unsec).
    encrypted: bool = True
    #: Price integrity metadata on the timed path: per-line MACs plus a
    #: Bonsai-style Merkle counter tree with a write-back node cache and
    #: coalesced ancestor updates (Freij et al.; the SuperMem+BMT scheme).
    #: Requires an encrypted, write-through counter organisation.
    integrity_tree: bool = False
    #: Counter line placement (paper Figure 8).
    counter_placement: CounterPlacementPolicy = CounterPlacementPolicy.SINGLE_BANK
    #: Counter write coalescing in the write queue (Section 3.4).
    cwc_enabled: bool = False
    #: CWC removal policy: "remove-older" (paper) or "merge-in-place"
    #: (ablation; see :mod:`repro.memory.write_queue`).
    cwc_policy: str = "remove-older"
    #: Bank offset used by XBank placement; ``None`` = ``n_banks // 2``
    #: (the paper's choice). Exposed for the offset-sweep ablation.
    xbank_offset: int | None = None
    #: Stage data+counter in the atomicity register so both are appended to
    #: the write queue as one unit (Section 3.2, Figure 7). Disabling this
    #: models the broken baseline of Figure 6 for crash experiments.
    atomicity_register: bool = True
    #: ADR protection for the re-encryption status register (Section 3.4.4).
    rsr_adr: bool = True
    #: Minor-counter width in bits; 7 in the split-counter scheme.
    minor_counter_bits: int = 7
    #: Selective counter-atomicity (Liu et al.): a write-back counter
    #: cache, but *persistent* writes (clwb-originated) carry their
    #: counter into the ADR domain as an atomic pair, while plain cache
    #: evictions leave counters dirty in SRAM. Models the paper's closest
    #: software/hardware competitor without its programming primitives.
    sca_mode: bool = False
    #: Osiris-style relaxed counter persistence (Ye et al.): counters are
    #: persisted only every N-th update of a counter line ("stop-loss");
    #: recovery re-derives lost counters by trial decryption against a
    #: per-line ECC/MAC check. 0 = strict persistence (disabled).
    osiris_stop_loss: int = 0
    #: Store actual bytes (functional mode). Timing-only runs skip payload
    #: encryption for speed but still model every latency.
    functional: bool = True
    #: Simulation fidelity. ``"full"`` keeps byte-level crypto and NVM
    #: payload storage available (the ``functional`` knob then decides
    #: whether traces actually carry payloads). ``"timing"`` skips all
    #: functional byte work — no pad generation, no XOR, no DurableImage
    #: mutation — while charging identical latencies, so Stats/SimResult
    #: are byte-for-byte the same as a ``"full"`` run of the same trace
    #: (asserted by ``tests/sim/test_fidelity.py``). ``"timing"`` forces
    #: ``functional`` off; crash/recovery/Table-1 harnesses force
    #: ``"full"`` because they audit recovered plaintext.
    fidelity: str = "full"
    #: Directory of the cross-process on-disk outcome store
    #: (:mod:`repro.sim.outcome_store`); ``None`` disables the disk tier.
    #: A harness knob, not a model knob: it cannot change simulated
    #: results (store hits are bit-identical to the compute path) and is
    #: therefore excluded from journal content digests
    #: (:func:`repro.experiments.journal.spec_digest`).
    outcome_store: str | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.minor_counter_bits <= 16:
            raise ConfigError("minor_counter_bits must be in [1, 16]")
        if self.fidelity not in ("full", "timing"):
            raise ConfigError(
                f"fidelity must be 'full' or 'timing', got {self.fidelity!r}"
            )
        if self.fidelity == "timing" and self.functional:
            # Timing fidelity is exactly "functional byte work off"; make
            # the coupling structural so the two knobs cannot disagree.
            object.__setattr__(self, "functional", False)

    def address_map(self) -> AddressMap:
        """Shortcut for ``self.memory.address_map()``."""
        return self.memory.address_map()
