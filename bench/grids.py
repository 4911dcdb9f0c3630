"""The benchmark's workloads: figure sweeps rebuilt as ``PointSpec`` lists.

Each workload is built here from the figure modules' public constants,
so a sweep is timed exactly as ``repro run`` executes it, except that
the seed comes from ``--seed``. Modelled caches start empty, as in the
figures (Figure 17 keeps its own warm-up transactions).
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path
from typing import Callable, Dict, List

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero.

    The benchmark measures the code next to it, never an installed copy,
    so a directory without ``src/repro`` is an error, not a fallback.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no repro sources at {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        sys.exit(f"bench: imported repro from {repro.__file__}, not {SRC}")


def _fig13(seed: int) -> list:
    from repro.experiments import fig13

    _, specs = fig13.specs("smoke")
    return [dataclasses.replace(spec, seed=seed) for spec in specs]


def _fig14(seed: int) -> list:
    from repro.core.schemes import EVALUATED_SCHEMES
    from repro.experiments import fig14
    from repro.experiments.common import experiment_base_config, get_scale
    from repro.experiments.runner import PointSpec
    from repro.workloads.base import WORKLOAD_NAMES

    scale = get_scale("smoke")
    base = experiment_base_config(scale)
    return [
        PointSpec(
            workload=workload,
            scheme=scheme,
            n_ops=scale.n_ops_multicore,
            request_size=1024,
            footprint=None,
            base_config=base,
            seed=seed,
            n_programs=n_programs,
        )
        for workload in WORKLOAD_NAMES
        for n_programs in fig14.PROGRAM_COUNTS
        for scheme in EVALUATED_SCHEMES
    ]


def _sensitivity(seed: int) -> list:
    from repro.core.schemes import Scheme
    from repro.experiments import fig16, fig17, fig_channels
    from repro.experiments.common import experiment_base_config, get_scale
    from repro.experiments.runner import PointSpec
    from repro.workloads.base import WORKLOAD_NAMES

    scale = get_scale("smoke")
    specs: List[PointSpec] = []
    for workload in WORKLOAD_NAMES:
        for entries in fig16.QUEUE_LENGTHS:
            for scheme in (Scheme.WT_BASE, Scheme.SUPERMEM):
                specs.append(
                    PointSpec(
                        workload=workload,
                        scheme=scheme,
                        n_ops=scale.n_ops,
                        request_size=1024,
                        footprint=scale.footprint,
                        base_config=experiment_base_config(
                            scale, write_queue_entries=entries
                        ),
                        seed=seed,
                    )
                )
    for workload in WORKLOAD_NAMES:
        for size in fig17.CACHE_SIZES:
            specs.append(
                PointSpec(
                    workload=workload,
                    scheme=Scheme.SUPERMEM,
                    n_ops=4 * scale.n_ops,
                    request_size=1024,
                    footprint=scale.footprint,
                    base_config=experiment_base_config(
                        scale, counter_cache_size=size
                    ),
                    seed=seed,
                    warmup_ops=scale.n_ops,
                )
            )
    base = experiment_base_config(scale)
    for workload in WORKLOAD_NAMES:
        for n_channels in fig_channels.CHANNEL_COUNTS:
            config = dataclasses.replace(
                base, memory=dataclasses.replace(base.memory, n_channels=n_channels)
            )
            for scheme in fig_channels.SCHEMES:
                specs.append(
                    PointSpec(
                        workload=workload,
                        scheme=scheme,
                        n_ops=scale.n_ops,
                        request_size=1024,
                        footprint=scale.footprint,
                        base_config=config,
                        seed=seed,
                    )
                )
    return specs


def _recovery(seed: int) -> list:
    from repro.core.schemes import RECOVERY_SCHEMES, Scheme
    from repro.experiments import fig_recovery
    from repro.experiments.common import experiment_base_config, get_scale
    from repro.experiments.runner import PointSpec

    scale = get_scale("full")
    capacities = scale.recovery_capacities
    base_log = scale.recovery_log_lines[0]
    dirty = fig_recovery.BASE_DIRTY_FRAC
    # The fig-recovery grid: the capacity headline, then the log-size,
    # RSR and dirty-fraction knob columns off the smallest capacity.
    cells = [
        (capacity, scheme, base_log, "off", dirty)
        for capacity in capacities
        for scheme in RECOVERY_SCHEMES
    ]
    cells += [
        (capacities[0], Scheme.SUPERMEM, log_lines, "off", dirty)
        for log_lines in scale.recovery_log_lines[1:]
    ]
    cells.append((capacities[0], Scheme.SUPERMEM, base_log, "armed", dirty))
    cells += [
        (capacities[0], scheme, base_log, "off", frac)
        for frac in (0.0, 1.0)
        for scheme in (Scheme.SCA, Scheme.OSIRIS)
    ]
    base = experiment_base_config(scale)
    return [
        PointSpec(
            workload="recovery",
            scheme=scheme,
            n_ops=scale.recovery_txns,
            request_size=fig_recovery.REQUEST_SIZE,
            footprint=fig_recovery.FOOTPRINT,
            base_config=dataclasses.replace(
                base, memory=dataclasses.replace(base.memory, capacity=capacity)
            ),
            seed=seed,
            kernel="recovery",
            kernel_params=(
                ("log_lines", log_lines),
                ("rsr", rsr),
                ("dirty_frac", dirty_frac),
            ),
        )
        for capacity, scheme, log_lines, rsr, dirty_frac in cells
    ]


#: Workload name -> grid builder. Why each workload exists is recorded
#: in BENCHMARK.json and bench/README.md.
WORKLOADS: Dict[str, Callable[[int], list]] = {
    "fig13": _fig13,
    "fig14": _fig14,
    "sensitivity": _sensitivity,
    "recovery": _recovery,
}


def build(name: str, seed: int) -> list:
    """The ``PointSpec`` list of workload ``name`` at ``seed``."""
    return WORKLOADS[name](seed)


def kernel_of(spec) -> str:
    """Which point kernel runs ``spec``: simulate, multiprogrammed or recovery."""
    if spec.kernel == "recovery":
        return "recovery"
    return "simulate" if spec.n_programs is None else "multiprogrammed"
