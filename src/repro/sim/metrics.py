"""Result records produced by the simulators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.stats import Stats
from repro.obs.histogram import nearest_rank


@dataclass
class SimResult:
    """Everything an experiment needs from one simulation run."""

    #: Wall-clock of the run in simulated nanoseconds (CPU retire time of
    #: the last op, or the drain completion if later).
    total_time_ns: float
    #: Per-transaction latencies (TXN_BEGIN -> TXN_END), nanoseconds.
    txn_latencies: List[float] = field(default_factory=list)
    #: The shared statistics registry of the run.
    stats: Stats = field(default_factory=Stats)

    # ------------------------------------------------------------------

    @property
    def n_txns(self) -> int:
        return len(self.txn_latencies)

    @property
    def avg_txn_latency_ns(self) -> float:
        if not self.txn_latencies:
            return 0.0
        return sum(self.txn_latencies) / len(self.txn_latencies)

    def txn_latency_percentile(self, p: float) -> float:
        """Nearest-rank percentile of the transaction latencies.

        The p-th percentile is the smallest recorded latency with at least
        ``p`` percent of the sample at or below it (rank ``ceil(p/100*n)``,
        the shared :func:`repro.obs.histogram.nearest_rank` definition
        ``repro trace-report`` also uses); 0.0 when no transactions were
        measured.
        """
        if not self.txn_latencies:
            return 0.0
        ordered = sorted(self.txn_latencies)
        rank = nearest_rank(p, len(ordered))
        return ordered[rank - 1]

    @property
    def p50_txn_latency_ns(self) -> float:
        return self.txn_latency_percentile(50)

    @property
    def p95_txn_latency_ns(self) -> float:
        return self.txn_latency_percentile(95)

    @property
    def p99_txn_latency_ns(self) -> float:
        return self.txn_latency_percentile(99)

    # -- write traffic --------------------------------------------------

    @property
    def nvm_writes(self) -> int:
        """Write requests that entered the persistence domain."""
        return int(self.stats.get("wq", "appends"))

    @property
    def data_writes(self) -> int:
        return int(self.stats.get("wq", "data_appends"))

    @property
    def counter_writes(self) -> int:
        return int(self.stats.get("wq", "counter_appends"))

    @property
    def coalesced_counter_writes(self) -> int:
        return int(self.stats.get("wq", "cwc_coalesced"))

    @property
    def surviving_writes(self) -> int:
        """Writes after CWC removal (what actually reaches the banks)."""
        return self.nvm_writes - self.coalesced_counter_writes

    # -- counter cache ---------------------------------------------------

    @property
    def counter_cache_hit_rate(self) -> float:
        """Hit rate over all counter-cache accesses (reads and updates)."""
        return self.stats.ratio("cc", "hits", "accesses")

    @property
    def counter_cache_read_hit_rate(self) -> float:
        """Read-path hit rate: the hits that let OTP generation overlap
        the data fetch (what Figure 17a measures)."""
        return self.stats.ratio("cc", "read_hits", "read_accesses")

    # -- stalls -----------------------------------------------------------

    @property
    def wq_stall_ns(self) -> float:
        return self.stats.get("wq", "stall_ns")

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable summary (the ``repro simulate --json`` payload).

        Flattens the headline metrics plus every raw counter of the shared
        statistics registry (as ``"namespace.counter"`` keys).
        """
        return {
            "total_time_ns": self.total_time_ns,
            "n_txns": self.n_txns,
            "avg_txn_latency_ns": self.avg_txn_latency_ns,
            "p50_txn_latency_ns": self.p50_txn_latency_ns,
            "p95_txn_latency_ns": self.p95_txn_latency_ns,
            "p99_txn_latency_ns": self.p99_txn_latency_ns,
            "nvm_writes": self.nvm_writes,
            "data_writes": self.data_writes,
            "counter_writes": self.counter_writes,
            "coalesced_counter_writes": self.coalesced_counter_writes,
            "surviving_writes": self.surviving_writes,
            "counter_cache_hit_rate": self.counter_cache_hit_rate,
            "counter_cache_read_hit_rate": self.counter_cache_read_hit_rate,
            "wq_stall_ns": self.wq_stall_ns,
            "stats": {
                f"{space}.{counter}": value for space, counter, value in self.stats
            },
        }

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"txns={self.n_txns} avg_lat={self.avg_txn_latency_ns:.0f}ns "
            f"writes={self.surviving_writes} (data={self.data_writes}, "
            f"ctr={self.counter_writes}, coalesced={self.coalesced_counter_writes}) "
            f"cc_hit={self.counter_cache_hit_rate:.2%}"
        )
