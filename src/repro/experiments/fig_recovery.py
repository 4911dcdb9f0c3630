"""Section 6 recovery-cost sweep: recovery time vs memory capacity.

The paper's recovery argument is an asymptotic ordering, not a runtime
figure: SuperMem's write-through counters make post-crash recovery work
**independent of memory capacity** (finish the interrupted page
re-encryption, walk the log tail), while SCA's counter-region scan is
**linear in capacity** and Osiris pays a **replay window per written
line**. This sweep makes the ordering measurable with the timed recovery
model of :mod:`repro.core.recovery_cost`:

* a headline grid — every recovery scheme x the scale's capacities, at a
  fixed log size and dirty fraction (the paper's Section 6 shape);
* knob columns off the smallest capacity — log size (SuperMem's only
  growth term), RSR armed vs disarmed (the O(RSR) constant), and
  counter-cache dirty fraction (which SCA's blind scan cannot exploit).

Every cell is a ``PointSpec(kernel="recovery")`` executed through the
supervised runner pool, so ``--jobs`` parallelism, the resume journal,
and retry policy are all inherited; results are bit-identical at any job
count. :func:`validate` re-asserts the Section 6 ordering on the swept
points, and :func:`points` calls it — the CLI run fails loudly if the
model drifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.schemes import RECOVERY_SCHEMES, Scheme, recovery_path
from repro.experiments.common import Scale, experiment_base_config, get_scale
from repro.experiments.report import render_table
from repro.experiments.runner import PointSpec
from repro.sim.metrics import SimResult

#: Request size of the pre-crash transactional writes.
REQUEST_SIZE = 256
#: Footprint the pre-crash transactions scatter over.
FOOTPRINT = 1 << 18
#: Dirty fraction of the headline capacity grid.
BASE_DIRTY_FRAC = 0.5


@dataclass
class FigRecoveryPoint:
    """One priced recovery cell of the sweep."""

    scheme: Scheme
    path: str
    capacity_mb: int
    log_lines: int
    rsr: str
    dirty_frac: float
    recovery_ns: float
    nvm_reads: int
    counter_line_reads: int
    aes_ops: int
    trial_decryptions: int
    replay_writes: int
    log_lines_scanned: int
    rsr_lines_resumed: int
    counter_region_lines: int
    written_data_lines: int
    tree_leaves_rebuilt: int
    hash_ops: int
    tree_root_verified: int


#: One sweep cell: (capacity, scheme, log_lines, rsr, dirty_frac).
_Cell = Tuple[int, Scheme, int, str, float]


def specs(scale: str) -> tuple:
    """The sweep's cells, one recovery-kernel spec each."""
    scale = get_scale(scale)
    capacities = scale.recovery_capacities
    log_sweep = scale.recovery_log_lines
    base_log = log_sweep[0]
    cells: List[_Cell] = []
    # Headline grid: the Section 6 capacity shape, one row per capacity.
    for capacity in capacities:
        for scheme in RECOVERY_SCHEMES:
            cells.append((capacity, scheme, base_log, "off", BASE_DIRTY_FRAC))
    # Log-size sweep (SuperMem's only size-dependent term).
    for log_lines in log_sweep[1:]:
        cells.append((capacities[0], Scheme.SUPERMEM, log_lines, "off", BASE_DIRTY_FRAC))
    # RSR armed: crash mid page re-encryption; recovery resumes it.
    cells.append((capacities[0], Scheme.SUPERMEM, base_log, "armed", BASE_DIRTY_FRAC))
    # Dirty-fraction extremes for the write-back (scan / trial) schemes.
    for dirty_frac in (0.0, 1.0):
        for scheme in (Scheme.SCA, Scheme.OSIRIS):
            cells.append((capacities[0], scheme, base_log, "off", dirty_frac))
    return cells, [_spec(scale, cell) for cell in cells]


def _spec(scale: Scale, cell: _Cell) -> PointSpec:
    import dataclasses

    capacity, scheme, log_lines, rsr, dirty_frac = cell
    base = experiment_base_config(scale)
    base = dataclasses.replace(
        base, memory=dataclasses.replace(base.memory, capacity=capacity)
    )
    return PointSpec(
        workload="recovery",
        scheme=scheme,
        n_ops=scale.recovery_txns,
        request_size=REQUEST_SIZE,
        footprint=FOOTPRINT,
        base_config=base,
        seed=1,
        kernel="recovery",
        kernel_params=(
            ("log_lines", log_lines),
            ("rsr", rsr),
            ("dirty_frac", dirty_frac),
        ),
    )


def _point(cell: _Cell, result: SimResult) -> FigRecoveryPoint:
    capacity, scheme, log_lines, rsr, dirty_frac = cell
    stats = result.stats

    def rec(name: str) -> int:
        return int(stats.get("recovery", name))

    return FigRecoveryPoint(
        scheme=scheme,
        path=recovery_path(scheme),
        capacity_mb=capacity >> 20,
        log_lines=log_lines,
        rsr=rsr,
        dirty_frac=dirty_frac,
        recovery_ns=result.total_time_ns,
        nvm_reads=rec("nvm_reads"),
        counter_line_reads=rec("counter_line_reads"),
        aes_ops=rec("aes_ops"),
        trial_decryptions=rec("trial_decryptions"),
        replay_writes=rec("replay_writes"),
        log_lines_scanned=rec("log_lines_scanned"),
        rsr_lines_resumed=rec("rsr_lines_resumed"),
        counter_region_lines=rec("counter_region_lines"),
        written_data_lines=rec("written_data_lines"),
        tree_leaves_rebuilt=rec("tree_leaves_rebuilt"),
        hash_ops=rec("hash_ops"),
        tree_root_verified=rec("tree_root_verified"),
    )


def points(cells, results) -> List[FigRecoveryPoint]:
    """One priced recovery per cell; the Section 6 ordering is validated."""
    out = [_point(cell, result) for cell, result in zip(cells, results)]
    validate(out)
    return out


def validate(points: List[FigRecoveryPoint]) -> None:
    """Assert the Section 6 ordering holds on the swept points.

    * SuperMem recovery time is flat in capacity (a small band covers
      bank-mapping jitter of counter-region addresses);
    * the SCA scan grows monotonically — and roughly linearly — with the
      counter-region size;
    * Osiris performs at least one trial decryption per written line and
      never beats SuperMem at equal state;
    * at every capacity the ordering is SuperMem <= SCA and
      SuperMem <= Osiris.
    """
    headline = [p for p in points if p.rsr == "off" and p.dirty_frac == BASE_DIRTY_FRAC]
    base_log = min(p.log_lines for p in headline)
    headline = [p for p in headline if p.log_lines == base_log]
    by_scheme = {
        scheme: sorted(
            (p for p in headline if p.scheme is scheme),
            key=lambda p: p.capacity_mb,
        )
        for scheme in RECOVERY_SCHEMES
    }
    supermem = by_scheme[Scheme.SUPERMEM]
    if len(supermem) >= 2:
        low, high = min(p.recovery_ns for p in supermem), max(
            p.recovery_ns for p in supermem
        )
        assert high <= low * 1.2, (
            f"SuperMem recovery should be flat in capacity, got {low}..{high} ns"
        )
    sca = by_scheme[Scheme.SCA]
    for smaller, larger in zip(sca, sca[1:]):
        assert larger.recovery_ns > smaller.recovery_ns, (
            "SCA scan cost must grow with capacity: "
            f"{smaller.capacity_mb}MB={smaller.recovery_ns} vs "
            f"{larger.capacity_mb}MB={larger.recovery_ns}"
        )
        assert larger.counter_region_lines > smaller.counter_region_lines
    if len(sca) >= 2:
        span = sca[-1].capacity_mb / sca[0].capacity_mb
        growth = sca[-1].recovery_ns / sca[0].recovery_ns
        assert growth >= span / 2, (
            f"SCA scan should scale ~linearly: capacity x{span}, cost x{growth:.2f}"
        )
    for osiris in by_scheme[Scheme.OSIRIS]:
        assert osiris.trial_decryptions >= osiris.written_data_lines - osiris.log_lines_scanned
    for bmt in by_scheme[Scheme.SUPERMEM_BMT]:
        # The tree rebuild must actually run and be priced: leaves hashed,
        # hash engine charged, and the rebuilt root must match the root
        # register captured at crash time.
        assert bmt.tree_leaves_rebuilt > 0, "BMT recovery rebuilt no leaves"
        assert bmt.hash_ops > 0, "BMT recovery charged no hash work"
        assert bmt.tree_root_verified == 1, (
            "rebuilt integrity-tree root does not match the crash-time root"
        )
    for capacity_mb in {p.capacity_mb for p in headline}:
        at = {p.scheme: p for p in headline if p.capacity_mb == capacity_mb}
        assert at[Scheme.SUPERMEM].recovery_ns <= at[Scheme.SCA].recovery_ns, (
            f"SCA must not beat SuperMem at {capacity_mb}MB"
        )
        assert at[Scheme.SUPERMEM].recovery_ns <= at[Scheme.OSIRIS].recovery_ns, (
            f"Osiris must not beat SuperMem at {capacity_mb}MB"
        )
        assert (
            at[Scheme.SUPERMEM_BMT].recovery_ns
            >= at[Scheme.SUPERMEM].recovery_ns
        ), f"tree rebuild cannot make recovery cheaper at {capacity_mb}MB"


def render(points: List[FigRecoveryPoint]) -> str:
    headline = [p for p in points if p.rsr == "off" and p.dirty_frac == BASE_DIRTY_FRAC]
    base_log = min(p.log_lines for p in headline)
    headline = [p for p in headline if p.log_lines == base_log]
    capacities = sorted({p.capacity_mb for p in headline})
    rows_a = []
    for capacity_mb in capacities:
        at = {p.scheme: p for p in headline if p.capacity_mb == capacity_mb}
        rows_a.append(
            [f"{capacity_mb} MB"]
            + [at[s].recovery_ns for s in RECOVERY_SCHEMES]
            + [
                at[Scheme.SCA].counter_region_lines,
                at[Scheme.OSIRIS].trial_decryptions,
                at[Scheme.SUPERMEM_BMT].tree_leaves_rebuilt,
            ]
        )
    knobs = [p for p in points if p not in headline]
    rows_b = [
        [
            p.scheme.label,
            f"{p.capacity_mb} MB",
            p.log_lines,
            p.rsr,
            p.dirty_frac,
            p.recovery_ns,
            p.rsr_lines_resumed,
            p.replay_writes,
        ]
        for p in knobs
    ]
    return "\n".join(
        [
            render_table(
                "Recovery cost vs memory capacity (Section 6 ordering)",
                ["capacity"]
                + [s.label + " ns" for s in RECOVERY_SCHEMES]
                + ["SCA scan lines", "Osiris trials", "BMT leaves"],
                rows_a,
                note=(
                    "Paper shape: SuperMem flat in capacity (log tail + RSR only); "
                    "SCA linear (full counter-region scan); Osiris grows with "
                    "replay-window x written lines."
                ),
            ),
            render_table(
                "Recovery knobs: log size, RSR resume, counter-cache dirty fraction",
                [
                    "scheme",
                    "capacity",
                    "log_lines",
                    "rsr",
                    "dirty_frac",
                    "recovery ns",
                    "rsr resumed",
                    "replay writes",
                ],
                rows_b,
                note=(
                    "SuperMem's cost moves only with the log and the bounded RSR "
                    "resume; SCA's blind scan cannot exploit a clean cache "
                    "(dirty_frac 0.0 costs the same scan as 1.0)."
                ),
            ),
        ]
    )
