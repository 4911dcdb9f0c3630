"""Trace-driven timing simulation.

* :mod:`repro.sim.engine` — the per-core replay engine: drives one op
  stream through a private cache hierarchy into the shared secure memory
  system, advancing a core-local clock;
* :mod:`repro.sim.simulator` — single-core simulation of one generated
  trace under one scheme;
* :mod:`repro.sim.multicore` — N-program simulation: private L1/L2 per
  core, shared L3, shared memory controller and counter cache, cores
  interleaved by local time (the paper's Figure 14 setup);
* :mod:`repro.sim.metrics` — the :class:`~repro.sim.metrics.SimResult`
  record every experiment consumes.
"""

from repro.sim.engine import CoreEngine
from repro.sim.metrics import SimResult
from repro.sim.multicore import MulticoreSimulator, simulate_multiprogrammed
from repro.sim.profiling import BankProfile, RunProfile, profile_run
from repro.sim.simulator import Simulator, simulate_workload

__all__ = [
    "CoreEngine",
    "SimResult",
    "MulticoreSimulator",
    "simulate_multiprogrammed",
    "BankProfile",
    "RunProfile",
    "profile_run",
    "Simulator",
    "simulate_workload",
]
