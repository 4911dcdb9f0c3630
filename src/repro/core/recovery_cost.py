"""Timed post-crash recovery: what Section 6's cost argument measures.

Table 1 and the crash storms prove recovery *correctness*; this module
prices recovery *time*. A :class:`RecoveryMeter` charges every recovery
action the PCM latency model's cost — bank-aware NVM reads and writes
(``read_service_ns`` / ``write_service_ns`` per bank, ``bus_ns`` request
serialisation) and AES pipeline latency per counter re-derivation — and
the three recovery paths of :func:`repro.core.schemes.recovery_path` are
driven through it:

* **SuperMem** (:func:`timed_supermem_recovery`) — strict counter
  persistence means no counter recovery at all: finish the RSR's
  interrupted page re-encryption (bounded by one page), scan the log
  tail, replay. Cost is O(RSR) + O(log size): *independent of memory
  capacity*.
* **SuperMem+BMT** (:func:`timed_supermem_bmt_recovery`) — the SuperMem
  path preceded by an integrity-tree rebuild: one read + leaf hash per
  persisted counter line, one hash per distinct touched ancestor, root
  compared against the on-chip root register
  (:attr:`~repro.core.crash.DurableImage.tree_root`).
* **SCA scan** (:func:`timed_sca_scan_recovery`) — Zuo et al.'s SCA
  keeps a write-back counter cache, so a crash loses dirty counters and
  nothing records which: recovery must read and verify *every* counter
  line of the installed capacity, never-written ones included, before
  the log replay. Cost grows linearly with memory capacity.
* **Osiris** (:func:`timed_osiris_recovery`) — bounded trial decryption
  per written line (:mod:`repro.core.osiris`): cost grows with the
  replay window x the amount of written memory.

The timing model is a deterministic pipelined lower bound: reads/writes
serialise per bank and on the command bus, AES ops serialise on the
crypto engine, and the three resources overlap freely —
``time_ns = max(busiest bank, bus, crypto)``. It is monotone (more work
never costs less) and bit-reproducible, which is what the ``fig-recovery``
sweep and the crash-fuzz consistency checks need.

:func:`run_recovery_point` is the experiment-runner kernel behind
``PointSpec(kernel="recovery")``: build a functional system, run seeded
transactions, optionally leave a re-encryption interrupted and counters
dirty, crash, and price the scheme's recovery path. It returns a regular
:class:`~repro.sim.metrics.SimResult` (total time = recovery ns, counters
in the ``recovery`` stats namespace), so journaling, resume, and
``--jobs`` parallelism are inherited from the runner unchanged.
"""

from __future__ import annotations

import random
import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.address import AddressMap, CACHE_LINE_SIZE, LINES_PER_PAGE, PAGE_SIZE
from repro.common.config import SimConfig
from repro.common.errors import ConfigError, CrashInjected, SimulationError
from repro.core.crash import CrashController, DurableImage
from repro.core.schemes import (
    RECOVERY_PATH_OSIRIS,
    RECOVERY_PATH_SCA_SCAN,
    RECOVERY_PATH_SUPERMEM,
    RECOVERY_PATH_SUPERMEM_BMT,
    recovery_path,
    scheme_config,
)
from repro.obs.events import (
    CAT_RECOVERY,
    PH_COMPLETE,
    RECOVERY_EV_PHASE,
    RECOVERY_EV_SUMMARY,
    TRACK_RECOVERY,
    TraceEvent,
)
from repro.sim.metrics import SimResult


class RecoveryMeter:
    """Charges recovery actions with the PCM latency model's costs.

    Three overlapping resources, each a monotone timeline:

    * per-bank service: a read occupies its bank ``read_service_ns``, a
      write ``write_service_ns`` (the 300 ns PCM cell write dominates);
    * the command bus: every request serialises for ``bus_ns``;
    * the AES engine: every OTP/verification serialises for ``aes_ns``.

    ``time_ns`` is the maximum over all timelines — the pipelined lower
    bound on recovery wall-clock. ``freeze()`` stops accounting so
    post-recovery audits can read the image for free.
    """

    def __init__(self, config: SimConfig):
        if config is None:
            raise SimulationError("recovery meter needs a configuration")
        self.config = config
        self.timing = config.timing
        self.amap: AddressMap = config.address_map()
        self._bank_free = [0.0] * config.memory.n_banks
        self._bus_ns = 0.0
        self._crypto_ns = 0.0
        self._hash_ns = 0.0
        self.frozen = False
        # Raw action counters.
        self.nvm_reads = 0
        self.nvm_writes = 0
        self.data_line_reads = 0
        self.counter_line_reads = 0
        self.aes_ops = 0
        self.hash_ops = 0

    # -- charging ---------------------------------------------------------

    def _service(self, line: int, service_ns: float) -> None:
        issue = self._bus_ns
        self._bus_ns += self.timing.bus_ns
        bank = self.amap.bank_of_line(line)
        start = max(issue, self._bank_free[bank])
        self._bank_free[bank] = start + service_ns

    def nvm_read(self, line: int, counter: bool = False) -> None:
        """Charge one NVM line read (bank occupancy + bus slot)."""
        if self.frozen:
            return
        self.nvm_reads += 1
        if counter:
            self.counter_line_reads += 1
        else:
            self.data_line_reads += 1
        self._service(line, self.timing.read_service_ns)

    def nvm_write(self, line: int) -> None:
        """Charge one NVM line write (bank occupancy + bus slot)."""
        if self.frozen:
            return
        self.nvm_writes += 1
        self._service(line, self.timing.write_service_ns)

    def aes(self, n: int = 1) -> None:
        """Charge ``n`` AES pipeline occupancies (OTP / trial decryption)."""
        if self.frozen:
            return
        self.aes_ops += n
        self._crypto_ns += n * self.timing.aes_ns

    def hash(self, n: int = 1) -> None:
        """Charge ``n`` hash-engine occupancies (integrity-tree rebuild)."""
        if self.frozen:
            return
        self.hash_ops += n
        self._hash_ns += n * self.timing.hash_ns

    def scan_counter_lines(self, first: int, count: int) -> None:
        """Charge ``count`` counter-line reads from ``first``, each verified.

        Prices ``nvm_read(line, counter=True)`` then ``aes()`` for every
        line in order, with the same float additions, so the timelines
        end bit-identical to the per-line calls.
        """
        if self.frozen:
            return
        self.nvm_reads += count
        self.counter_line_reads += count
        self.aes_ops += count
        bus_step = self.timing.bus_ns
        read_ns = self.timing.read_service_ns
        aes_ns = self.timing.aes_ns
        bank_of_line = self.amap.bank_of_line
        bank_free = self._bank_free
        bus = self._bus_ns
        crypto = self._crypto_ns
        for line in range(first, first + count):
            issue = bus
            bus += bus_step
            bank = bank_of_line(line)
            bank_free[bank] = max(issue, bank_free[bank]) + read_ns
            crypto += aes_ns
        self._bus_ns = bus
        self._crypto_ns = crypto

    def freeze(self) -> None:
        """Stop accounting (audits after this point are free)."""
        self.frozen = True

    # -- results ----------------------------------------------------------

    @property
    def time_ns(self) -> float:
        """Pipelined recovery time: the busiest resource's timeline."""
        return max(
            max(self._bank_free), self._bus_ns, self._crypto_ns, self._hash_ns
        )


@dataclass
class RecoveryCostReport:
    """Priced outcome of one timed recovery."""

    #: Which path ran (see :func:`repro.core.schemes.recovery_path`).
    path: str
    #: Recovery time under the pipelined PCM model, nanoseconds.
    time_ns: float = 0.0
    nvm_reads: int = 0
    nvm_writes: int = 0
    data_line_reads: int = 0
    counter_line_reads: int = 0
    aes_ops: int = 0
    #: Osiris only: total trial decryptions across all written lines.
    trial_decryptions: int = 0
    #: Lines rewritten by the transaction-log replay.
    replay_writes: int = 0
    #: Log-region lines walked by the recovery scan.
    log_lines_scanned: int = 0
    #: Lines finished by the RSR resume (interrupted re-encryption).
    rsr_lines_resumed: int = 0
    #: SCA scan only: counter-region lines walked (== pages of capacity).
    counter_region_lines: int = 0
    #: Data-region lines with a durable image at crash time.
    written_data_lines: int = 0
    #: SuperMem+BMT only: persisted counter leaves hashed by the rebuild.
    tree_leaves_rebuilt: int = 0
    #: SuperMem+BMT only: distinct internal nodes (plus root) rehashed.
    tree_nodes_rehashed: int = 0
    #: Hash-engine occupancies charged (tree rebuild).
    hash_ops: int = 0
    #: 1 when the rebuilt root matched ``DurableImage.tree_root``.
    tree_root_verified: int = 0
    #: ``(name, start_ns, end_ns)`` per recovery stage, in order.
    phases: List[Tuple[str, float, float]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "time_ns": self.time_ns,
            "nvm_reads": self.nvm_reads,
            "nvm_writes": self.nvm_writes,
            "data_line_reads": self.data_line_reads,
            "counter_line_reads": self.counter_line_reads,
            "aes_ops": self.aes_ops,
            "trial_decryptions": self.trial_decryptions,
            "replay_writes": self.replay_writes,
            "log_lines_scanned": self.log_lines_scanned,
            "rsr_lines_resumed": self.rsr_lines_resumed,
            "counter_region_lines": self.counter_region_lines,
            "written_data_lines": self.written_data_lines,
            "tree_leaves_rebuilt": self.tree_leaves_rebuilt,
            "tree_nodes_rehashed": self.tree_nodes_rehashed,
            "hash_ops": self.hash_ops,
            "tree_root_verified": self.tree_root_verified,
            "phases": [list(p) for p in self.phases],
        }


def recovery_trace_events(report: RecoveryCostReport) -> List[TraceEvent]:
    """The report as ``CAT_RECOVERY`` events on the recovery track.

    One ``X`` (complete) event per recovery phase in simulated
    nanoseconds, plus a summary instant carrying every counter — the
    payload behind ``repro recovery-report --trace``.
    """
    events: List[TraceEvent] = []
    for name, start, end in report.phases:
        events.append(
            TraceEvent(
                cat=CAT_RECOVERY,
                name=RECOVERY_EV_PHASE,
                track=TRACK_RECOVERY,
                ts=start,
                ph=PH_COMPLETE,
                dur=max(0.0, end - start),
                args={"phase": name},
            )
        )
    summary = report.to_dict()
    summary.pop("phases")
    events.append(
        TraceEvent(
            cat=CAT_RECOVERY,
            name=RECOVERY_EV_SUMMARY,
            track=TRACK_RECOVERY,
            ts=report.time_ns,
            args=summary,
        )
    )
    return events


# ----------------------------------------------------------------------
# Timed recovery paths
# ----------------------------------------------------------------------


def _finish(report: RecoveryCostReport, meter: RecoveryMeter) -> RecoveryCostReport:
    report.time_ns = meter.time_ns
    report.nvm_reads = meter.nvm_reads
    report.nvm_writes = meter.nvm_writes
    report.data_line_reads = meter.data_line_reads
    report.counter_line_reads = meter.counter_line_reads
    report.aes_ops = meter.aes_ops
    report.hash_ops = meter.hash_ops
    return report


def _replay_log(
    recovered,
    log_base: int,
    log_size: int,
    meter: RecoveryMeter,
    report: RecoveryCostReport,
) -> None:
    """Shared tail of every path: scan the log region, replay, install."""
    from repro.txn.log import LogRegion
    from repro.txn.transaction import recover_data_view

    t0 = meter.time_ns
    log_region = LogRegion(log_base, log_size)
    replay = recover_data_view(recovered, log_region, data_lines=())
    report.log_lines_scanned = log_size // CACHE_LINE_SIZE
    report.phases.append(("log-scan", t0, meter.time_ns))
    t1 = meter.time_ns
    report.replay_writes = recovered.apply_replay(replay)
    report.phases.append(("log-replay", t1, meter.time_ns))


def timed_supermem_recovery(
    image: DurableImage,
    log_base: int,
    log_size: int,
    meter: Optional[RecoveryMeter] = None,
):
    """Strict-persistence recovery: RSR resume + log tail. O(RSR + log).

    Returns ``(recovered_system, report)``; the recovered system carries
    the post-replay view, ready for :meth:`audit_against_shadow`.
    """
    from repro.core.recovery import RecoveredSystem

    meter = meter if meter is not None else RecoveryMeter(image.config)
    recovered = RecoveredSystem(image, meter=meter)
    report = RecoveryCostReport(path=RECOVERY_PATH_SUPERMEM)
    report.written_data_lines = len(image.written_data_lines(meter.amap.n_lines))
    t0 = meter.time_ns
    report.rsr_lines_resumed = recovered.resume_reencryption()
    report.phases.append(("rsr-resume", t0, meter.time_ns))
    _replay_log(recovered, log_base, log_size, meter, report)
    return recovered, _finish(report, meter)


def timed_supermem_bmt_recovery(
    image: DurableImage,
    log_base: int,
    log_size: int,
    meter: Optional[RecoveryMeter] = None,
):
    """SuperMem plus an integrity-tree rebuild over the counter region.

    The rebuild runs *first*: the RSR resume and the log replay both
    mutate counter lines, and the rebuilt root must match the root
    register as of the crash (``DurableImage.tree_root``). Cost over
    plain SuperMem is one bank read + leaf hash per persisted counter
    line plus one hash per distinct touched ancestor — bounded by the
    written working set, not capacity.
    """
    from repro.core.recovery import RecoveredSystem

    meter = meter if meter is not None else RecoveryMeter(image.config)
    recovered = RecoveredSystem(image, meter=meter)
    report = RecoveryCostReport(path=RECOVERY_PATH_SUPERMEM_BMT)
    report.written_data_lines = len(image.written_data_lines(meter.amap.n_lines))
    t0 = meter.time_ns
    leaves, nodes, root = recovered.rebuild_integrity_tree()
    report.tree_leaves_rebuilt = leaves
    report.tree_nodes_rehashed = nodes
    report.tree_root_verified = int(
        image.tree_root is None or root == image.tree_root
    )
    report.phases.append(("tree-rebuild", t0, meter.time_ns))
    t1 = meter.time_ns
    report.rsr_lines_resumed = recovered.resume_reencryption()
    report.phases.append(("rsr-resume", t1, meter.time_ns))
    _replay_log(recovered, log_base, log_size, meter, report)
    return recovered, _finish(report, meter)


def timed_sca_scan_recovery(
    image: DurableImage,
    log_base: int,
    log_size: int,
    meter: Optional[RecoveryMeter] = None,
):
    """Counter-region scan recovery: walk every counter line, then replay.

    The scan is the whole point: its cost is ``n_pages`` reads +
    verifications, linear in memory capacity, paid before a single byte
    of useful data is served. It recovers no data itself (the log replay
    does), and its cost does not depend on what the counter lines hold,
    so one :meth:`RecoveryMeter.scan_counter_lines` call prices it.
    """
    from repro.core.recovery import RecoveredSystem

    meter = meter if meter is not None else RecoveryMeter(image.config)
    if not image.config.encrypted:
        raise SimulationError("counter-region scan on an unencrypted image")
    amap = meter.amap
    report = RecoveryCostReport(path=RECOVERY_PATH_SCA_SCAN)
    report.written_data_lines = len(image.written_data_lines(amap.n_lines))
    t0 = meter.time_ns
    meter.scan_counter_lines(amap.n_lines, amap.n_pages)
    report.counter_region_lines = amap.n_pages
    report.phases.append(("counter-scan", t0, meter.time_ns))
    recovered = RecoveredSystem(image, meter=meter)
    t1 = meter.time_ns
    report.rsr_lines_resumed = recovered.resume_reencryption()
    report.phases.append(("rsr-resume", t1, meter.time_ns))
    _replay_log(recovered, log_base, log_size, meter, report)
    return recovered, _finish(report, meter)


def timed_osiris_recovery(
    image: DurableImage,
    log_base: int,
    log_size: int,
    meter: Optional[RecoveryMeter] = None,
):
    """Trial-decryption recovery: replay window per written line + replay."""
    from repro.core.osiris import OsirisRecovery
    from repro.core.recovery import RecoveredSystem

    meter = meter if meter is not None else RecoveryMeter(image.config)
    report = RecoveryCostReport(path=RECOVERY_PATH_OSIRIS)
    report.written_data_lines = len(image.written_data_lines(meter.amap.n_lines))
    t0 = meter.time_ns
    osiris = OsirisRecovery(image, meter=meter).recover()
    report.trial_decryptions = osiris.trial_decryptions
    report.phases.append(("trial-decrypt", t0, meter.time_ns))
    recovered = RecoveredSystem(image, meter=meter)
    t1 = meter.time_ns
    report.rsr_lines_resumed = recovered.resume_reencryption()
    report.phases.append(("rsr-resume", t1, meter.time_ns))
    _replay_log(recovered, log_base, log_size, meter, report)
    return recovered, _finish(report, meter)


_TIMED_PATHS = {
    RECOVERY_PATH_SUPERMEM: timed_supermem_recovery,
    RECOVERY_PATH_SUPERMEM_BMT: timed_supermem_bmt_recovery,
    RECOVERY_PATH_SCA_SCAN: timed_sca_scan_recovery,
    RECOVERY_PATH_OSIRIS: timed_osiris_recovery,
}


def timed_recovery(
    image: DurableImage,
    path: str,
    log_base: int,
    log_size: int,
    meter: Optional[RecoveryMeter] = None,
):
    """Dispatch to one timed recovery path by name."""
    try:
        fn = _TIMED_PATHS[path]
    except KeyError:
        raise ConfigError(
            f"unknown recovery path {path!r}; expected one of {sorted(_TIMED_PATHS)}"
        ) from None
    return fn(image, log_base, log_size, meter=meter)


# ----------------------------------------------------------------------
# The experiment-runner kernel (PointSpec.kernel == "recovery")
# ----------------------------------------------------------------------

#: Defaults of the kernel knobs carried in ``PointSpec.kernel_params``.
DEFAULT_LOG_LINES = 256
DEFAULT_RSR = "off"
DEFAULT_DIRTY_FRAC = 0.0


#: ``bytes.translate`` table taking a draw ``r`` in 0..254 to ``r + 1``.
_DRAW_TO_BYTE = bytes(range(1, 256)) + b"\x00"


def _payload(rng: random.Random, size: int) -> bytes:
    """``size`` bytes in 1..255, exactly ``randrange(1, 256)`` drawn per byte.

    ``randrange(1, 256)`` is ``1 + getrandbits(8)``, drawn again while the
    draw is 255, and ``getrandbits(8)`` is the top byte of one 32-bit
    generator output. ``getrandbits(32 * n)`` returns ``n`` consecutive
    outputs, the first in the lowest word, so byte ``4 * i + 3`` of its
    little-endian image is the ``i``-th ``getrandbits(8)`` draw. Drawing
    only as many outputs as bytes are still missing consumes the generator
    exactly as the per-byte loop would.
    """
    out = b""
    while len(out) < size:
        need = size - len(out)
        draws = rng.getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
        out += draws.translate(_DRAW_TO_BYTE, b"\xff")
    return out


def run_recovery_scenario(
    scheme,
    base_config: Optional[SimConfig] = None,
    n_txns: int = 16,
    request_size: int = 256,
    footprint: int = 1 << 18,
    seed: int = 1,
    log_lines: int = DEFAULT_LOG_LINES,
    rsr: str = DEFAULT_RSR,
    dirty_frac: float = DEFAULT_DIRTY_FRAC,
):
    """Build, write, crash, and price one recovery scenario.

    Returns ``(report, recovered_system, shadow)`` where ``shadow`` maps
    flushed line -> plaintext (the audit universe). The meter is frozen
    before returning, so auditing the recovered system costs nothing.
    """
    from repro.core.system import SecureMemorySystem
    from repro.txn.log import LogRegion
    from repro.txn.persist import DirectDomain
    from repro.txn.transaction import TransactionManager

    if not 0.0 <= dirty_frac <= 1.0:
        raise ConfigError(f"dirty_frac must be in [0, 1], got {dirty_frac}")
    if rsr not in ("armed", "off"):
        raise ConfigError(f"rsr must be 'armed' or 'off', got {rsr!r}")
    if log_lines < 2:
        raise ConfigError(f"log_lines must be >= 2, got {log_lines}")
    if request_size < 1:
        raise ConfigError(f"request_size must be >= 1, got {request_size}")

    # The recovery kernel audits recovered plaintext byte-for-byte, so it
    # always runs at full fidelity even when a sweep asked for "timing".
    config = dataclasses.replace(scheme_config(scheme, base_config), fidelity="full")
    crash_ctl = CrashController()
    system = SecureMemorySystem(config, crash=crash_ctl)
    domain = DirectDomain(system)
    log_size = log_lines * CACHE_LINE_SIZE
    manager = TransactionManager(domain, LogRegion(0, log_size), crash=crash_ctl)

    # Data region starts page-aligned past the log so replay never
    # aliases log lines.
    data_base = ((log_size + PAGE_SIZE - 1) // PAGE_SIZE + 1) * PAGE_SIZE
    n_slots = max(1, footprint // request_size)
    rng = random.Random(seed)

    # Transactions before `clean` end in a counter checkpoint (their
    # write-back counters are durably evicted); the rest leave their
    # counters dirty in SRAM — the counter-cache dirty-fraction knob.
    # Write-through schemes have nothing dirty either way.
    clean = n_txns - int(round(n_txns * dirty_frac))
    for i in range(n_txns):
        addr = data_base + rng.randrange(n_slots) * request_size
        manager.run([(addr, request_size, _payload(rng, request_size))])
        if i == clean - 1:
            system.checkpoint_counters()

    if rsr == "armed":
        # Interrupt a page re-encryption halfway so recovery must resume
        # it from the RSR (Section 3.4.4).
        page = system.amap.page_of_line(data_base // CACHE_LINE_SIZE)
        crash_ctl.arm("reencrypt-line-done", occurrence=LINES_PER_PAGE // 2)
        try:
            system.reencrypt_page(domain.now, page)
        except CrashInjected:
            pass

    shadow = dict(domain.flushed_shadow)
    image = system.crash()
    meter = RecoveryMeter(config)
    recovered, report = timed_recovery(
        image, recovery_path(scheme), 0, log_size, meter=meter
    )
    meter.freeze()
    return report, recovered, shadow


def run_recovery_point(spec) -> SimResult:
    """Runner kernel: execute one ``kernel="recovery"`` point.

    The priced recovery lands in a :class:`SimResult` so the supervised
    pool, the journal, and ``--jobs`` determinism all apply unchanged:
    ``total_time_ns`` is the recovery time and every cost counter lives
    in the ``recovery`` stats namespace (which the journal round-trips).
    """
    params = dict(spec.kernel_params)
    if not isinstance(spec.workload, str):
        raise ConfigError("recovery points take a single workload label")
    report, _recovered, _shadow = run_recovery_scenario(
        spec.scheme,
        base_config=spec.base_config,
        n_txns=spec.n_ops,
        request_size=spec.request_size,
        footprint=spec.footprint if spec.footprint else 1 << 18,
        seed=spec.seed,
        log_lines=int(params.get("log_lines", DEFAULT_LOG_LINES)),
        rsr=str(params.get("rsr", DEFAULT_RSR)),
        dirty_frac=float(params.get("dirty_frac", DEFAULT_DIRTY_FRAC)),
    )
    result = SimResult(total_time_ns=report.time_ns)
    record = report.to_dict()
    record.pop("phases")
    record.pop("path")
    for key, value in record.items():
        result.stats.set("recovery", key, value)
    return result
