"""Shared experiment infrastructure: scales and the base configuration.

The paper evaluated an 8 GB PCM system in gem5/NVMain with workloads whose
footprints reach a full memory bank. A pure-Python reproduction scales the
*geometry* down while preserving the ratios that drive every result:

* 8 banks, 32-entry write queue, PCM latencies — identical to the paper;
* capacity 64 MB (vs 8 GB) and per-workload footprint 4 MB — footprint
  still spans many pages in every bank and exceeds what one transaction
  touches by orders of magnitude;
* counter cache 256 KB as in Table 2 (its 16 MB reach vs 4 MB footprint is
  *larger* relatively than the paper's 16 MB vs ~1 GB; Figure 17 sweeps
  the size down to 1 KB, crossing the same reach-vs-footprint boundary the
  paper's sweep crosses).

Three scales trade run time for statistical smoothness; all reproduce the
same shapes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.common.config import MemoryConfig, SimConfig
from repro.common.errors import ConfigError
from repro.core.schemes import EVALUATED_SCHEMES, Scheme
from repro.sim.validation import validate_result


@dataclass(frozen=True)
class Scale:
    """Run-size preset for the experiment suite."""

    name: str
    #: Measured transactions per (workload, scheme, size) point.
    n_ops: int
    #: Transactions per point in multi-programmed runs (per program).
    n_ops_multicore: int
    #: Workload footprint in bytes.
    footprint: int
    #: NVM capacity in bytes.
    capacity: int
    #: Counter-cache size scaled with the footprint: the paper pairs a
    #: 256 KB cache (16 MB reach) with ~GB footprints, i.e. the cache
    #: covers a small fraction of the data. These values keep
    #: reach/footprint in the same regime so write-back eviction traffic
    #: and cold counter fetches appear as they do in the paper.
    counter_cache_size: int
    #: Memory capacities swept by the ``fig-recovery`` experiment. The
    #: Section 6 argument is about the *shape* over capacity (SuperMem
    #: flat, SCA linear), so a 4x range suffices at every scale.
    recovery_capacities: tuple = (8 << 20, 16 << 20, 32 << 20)
    #: Log sizes (in 64 B lines) swept by ``fig-recovery``.
    recovery_log_lines: tuple = (128, 512)
    #: Transactions executed before the crash in each recovery point.
    recovery_txns: int = 12


SCALES = {
    "smoke": Scale(
        "smoke",
        n_ops=30,
        n_ops_multicore=15,
        footprint=1 << 20,
        capacity=32 << 20,
        counter_cache_size=1 << 10,
        recovery_capacities=(8 << 20, 16 << 20, 32 << 20),
        recovery_log_lines=(128, 512),
        recovery_txns=12,
    ),
    "default": Scale(
        "default",
        n_ops=120,
        n_ops_multicore=50,
        footprint=4 << 20,
        capacity=64 << 20,
        counter_cache_size=4 << 10,
        recovery_capacities=(16 << 20, 32 << 20, 64 << 20),
        recovery_log_lines=(128, 512, 2048),
        recovery_txns=24,
    ),
    "full": Scale(
        "full",
        n_ops=400,
        n_ops_multicore=150,
        footprint=8 << 20,
        capacity=128 << 20,
        counter_cache_size=8 << 10,
        recovery_capacities=(32 << 20, 64 << 20, 128 << 20),
        recovery_log_lines=(128, 512, 2048),
        recovery_txns=48,
    ),
}


def get_scale(name: str) -> Scale:
    try:
        return SCALES[name]
    except KeyError:
        raise KeyError(f"unknown scale {name!r}; expected one of {sorted(SCALES)}") from None


def experiment_base_config(
    scale: Scale,
    write_queue_entries: int = 32,
    counter_cache_size: int | None = None,
) -> SimConfig:
    """The Table 2 system at the given scale.

    The counter cache defaults to the scale's footprint-proportional size
    (see :class:`Scale`); pass an explicit ``counter_cache_size`` to
    override (the Figure 17 sweep does).
    """
    if counter_cache_size is None:
        counter_cache_size = scale.counter_cache_size
    base = SimConfig(
        memory=MemoryConfig(
            capacity=scale.capacity,
            write_queue_entries=write_queue_entries,
        ),
    )
    if counter_cache_size != base.counter_cache.size:
        assoc = min(8, max(1, counter_cache_size // 64))
        base = dataclasses.replace(
            base,
            counter_cache=dataclasses.replace(
                base.counter_cache, size=counter_cache_size, assoc=assoc
            ),
        )
    return base


def normalise_to_unsec(cells, results, metric):
    """``(cell, scheme, value, normalised)`` over a cells x schemes grid.

    ``results`` hold one result per cell and :data:`EVALUATED_SCHEMES`
    entry, schemes innermost, as the grids lay out their specs. Every
    result is validated, ``metric`` reads its value, and each cell is
    normalised to its first scheme.
    """
    if EVALUATED_SCHEMES[0] is not Scheme.UNSEC:
        # A reordered EVALUATED_SCHEMES would silently normalise to the
        # wrong system instead of Unsec.
        raise ConfigError(
            f"EVALUATED_SCHEMES must start with Unsec (the normalization "
            f"baseline), got {EVALUATED_SCHEMES[0]!r}"
        )
    results = iter(results)
    for cell in cells:
        baseline = None
        for scheme in EVALUATED_SCHEMES:
            result = next(results)
            validate_result(result, encrypted=(scheme is not Scheme.UNSEC))
            value = metric(result)
            if baseline is None:
                baseline = value
            yield cell, scheme, value, value / baseline if baseline else 0.0
