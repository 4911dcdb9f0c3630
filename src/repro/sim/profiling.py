"""Post-run profiling: bank utilisation and write-queue behaviour.

Turns a finished run's statistics into the analyses an architect reads
first: which bank is the bottleneck (the SingleBank story in one table),
how busy the drain was, and how hard the write queue pushed back on the
cores. Everything derives from counters the components already maintain —
profiling never touches the timing model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim.metrics import SimResult


@dataclass(frozen=True)
class BankProfile:
    """Activity of one bank over a run."""

    index: int
    reads: int
    writes: int
    busy_ns: float
    utilization: float  # busy / total run time

    @property
    def accesses(self) -> int:
        return self.reads + self.writes


@dataclass(frozen=True)
class RunProfile:
    """The full post-run profile."""

    total_time_ns: float
    banks: List[BankProfile]
    wq_full_stalls: int
    wq_stall_ns: float
    wq_peak_occupancy: int
    read_forwards: int

    @property
    def hottest_bank(self) -> BankProfile:
        return max(self.banks, key=lambda b: b.busy_ns)

    @property
    def bank_imbalance(self) -> float:
        """Hottest bank's busy time over the mean (1.0 = perfectly even).

        The SingleBank counter bottleneck shows up here as a large value;
        XBank pulls it toward 1.
        """
        if not self.banks:
            return 0.0
        mean = sum(b.busy_ns for b in self.banks) / len(self.banks)
        if mean == 0:
            return 0.0
        return self.hottest_bank.busy_ns / mean

    @property
    def stall_fraction(self) -> float:
        """Share of the run the cores spent stalled on a full queue."""
        if self.total_time_ns <= 0:
            return 0.0
        return self.wq_stall_ns / self.total_time_ns

    def format(self) -> str:
        lines = [
            f"run time: {self.total_time_ns:.0f} ns; "
            f"stalls: {self.wq_full_stalls} ({self.stall_fraction:.1%} of time); "
            f"WQ peak: {self.wq_peak_occupancy}; forwards: {self.read_forwards}",
            f"{'bank':>4} | {'reads':>7} | {'writes':>7} | {'busy ns':>10} | {'util':>6}",
        ]
        for bank in self.banks:
            lines.append(
                f"{bank.index:>4} | {bank.reads:>7} | {bank.writes:>7} | "
                f"{bank.busy_ns:>10.0f} | {bank.utilization:>6.1%}"
            )
        lines.append(f"bank imbalance (hottest/mean busy): {self.bank_imbalance:.2f}x")
        return "\n".join(lines)


def profile_run(result: SimResult) -> RunProfile:
    """Build a :class:`RunProfile` from a finished run's statistics.

    The memory controller records its bank count under
    ``config.n_banks`` (and the journal keeps it), so non-default bank
    configurations profile correctly without the caller re-threading the
    :class:`~repro.common.config.SimConfig`.
    """
    stats = result.stats
    n_banks = int(stats.get("config", "n_banks"))
    total = result.total_time_ns
    banks = []
    for index in range(n_banks):
        ns = f"bank.{index}"
        busy = stats.get(ns, "busy_ns")
        banks.append(
            BankProfile(
                index=index,
                reads=int(stats.get(ns, "reads")),
                writes=int(stats.get(ns, "writes")),
                busy_ns=busy,
                utilization=(busy / total) if total > 0 else 0.0,
            )
        )
    return RunProfile(
        total_time_ns=total,
        banks=banks,
        wq_full_stalls=int(stats.get("wq", "full_stalls")),
        wq_stall_ns=stats.get("wq", "stall_ns"),
        wq_peak_occupancy=int(stats.get("wq", "peak_occupancy")),
        read_forwards=int(stats.get("wq", "read_forwards")),
    )
