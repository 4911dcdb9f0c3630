"""Internal-consistency validation of simulation results.

A trace-driven model can silently drift (a counter not incremented, a path
double-counted) without any test failing loudly. :func:`validate_result`
cross-checks the bookkeeping invariants that must hold between independent
components after any completed run:

* conservation: every appended write, and every warm-up write still
  queued when the warm-up's counters reset, was either issued or
  coalesced away (the queue drains empty);
* pairing: under write-through encryption, counter appends equal data
  appends (before coalescing);
* provenance: data appends at the queue equal persists at the secure
  memory layer;
* plausibility: latencies are non-negative, the hit rate is a
  probability, bank busy time fits inside the run.

Experiments call it in their loops (it is cheap) so a model regression
surfaces as a loud `ValidationError` with the violated invariant named,
not as a quietly wrong figure.
"""

from __future__ import annotations

from typing import List

from repro.common.errors import ReproError
from repro.sim.metrics import SimResult


class ValidationError(ReproError):
    """A bookkeeping invariant of the simulation was violated."""


def validate_result(
    result: SimResult,
    encrypted: bool | None = None,
    write_through: bool | None = None,
    n_banks: int | None = None,
) -> List[str]:
    """Check cross-component invariants; returns the list of checks run.

    Raises :class:`ValidationError` naming the first violated invariant.
    ``encrypted``/``write_through`` enable the scheme-specific checks when
    the caller knows the configuration. ``n_banks`` defaults to the bank
    count the memory controller recorded in the run's stats (8 when the
    stats carry none), so every bank of a wider geometry is checked.
    """
    stats = result.stats
    if n_banks is None:
        n_banks = int(stats.get("config", "n_banks", 8))
    checks: List[str] = []

    def ensure(condition: bool, name: str, detail: str = "") -> None:
        checks.append(name)
        if not condition:
            raise ValidationError(f"invariant {name!r} violated: {detail}")

    appends = stats.get("wq", "appends")
    carried_in = stats.get("wq", "carried_in")
    issued = stats.get("wq", "issued")
    coalesced = stats.get("wq", "cwc_coalesced")
    adr = stats.get("wq", "adr_flushed")
    ensure(
        appends + carried_in == issued + coalesced + adr,
        "write-conservation",
        f"appends={appends} carried_in={carried_in} issued={issued} "
        f"coalesced={coalesced} adr={adr}",
    )

    data_appends = stats.get("wq", "data_appends")
    counter_appends = stats.get("wq", "counter_appends")
    ensure(
        appends == data_appends + counter_appends,
        "append-classification",
        f"{appends} != {data_appends}+{counter_appends}",
    )

    if encrypted is False:
        ensure(counter_appends == 0, "unsec-no-counters", f"{counter_appends}")
    if encrypted and write_through:
        # Every data write pairs a counter write; re-encryption and
        # counter-cache machinery never *reduce* counters below data.
        ensure(
            counter_appends >= data_appends,
            "write-through-pairing",
            f"ctr={counter_appends} < data={data_appends}",
        )

    persists = stats.get("secmem", "data_writes")
    if persists:
        ensure(
            data_appends >= persists,
            "persist-provenance",
            f"data_appends={data_appends} < persists={persists}",
        )

    ensure(
        all(lat >= 0 for lat in result.txn_latencies),
        "non-negative-latency",
    )
    hit_rate = result.counter_cache_hit_rate
    ensure(0.0 <= hit_rate <= 1.0, "hit-rate-range", f"{hit_rate}")

    if result.total_time_ns > 0:
        for bank in range(n_banks):
            busy = stats.get(f"bank.{bank}", "busy_ns")
            ensure(
                busy <= result.total_time_ns + 1e-6,
                "bank-busy-fits-run",
                f"bank {bank}: busy={busy} > total={result.total_time_ns}",
            )

    ensure(result.coalesced_counter_writes <= result.counter_writes, "coalesce-bound")
    return checks
