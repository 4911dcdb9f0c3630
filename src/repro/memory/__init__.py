"""The NVM main-memory subsystem: banks, write queue, controller, storage.

This package models the memory side of the paper's evaluation platform:

* :mod:`repro.memory.nvm` — the functional byte store (what survives a
  crash);
* :mod:`repro.memory.bank` — PCM bank timing: slow cell writes, a row
  buffer for reads, write-to-read turnaround, and the rank-level
  four-activate window;
* :mod:`repro.memory.layout` — the three counter-placement policies of
  paper Figure 8 (SingleBank / SameBank / XBank);
* :mod:`repro.memory.write_queue` — the ADR-protected write queue with the
  counter/data flag bit and counter write coalescing (Section 3.4.3);
* :mod:`repro.memory.controller` — the memory controller: FR-FCFS-style
  drain scheduling, read priority with write-queue forwarding, full-queue
  stalls, and atomic data+counter pair appends.
"""

from repro.memory.bank import Bank, RankState
from repro.memory.controller import MemoryController
from repro.memory.layout import (
    CounterPlacement,
    SameBankLayout,
    SingleBankLayout,
    XBankLayout,
    make_layout,
)
from repro.memory.nvm import NVMStore
from repro.memory.write_queue import WQEntry, WriteQueue

__all__ = [
    "Bank",
    "RankState",
    "MemoryController",
    "CounterPlacement",
    "SameBankLayout",
    "SingleBankLayout",
    "XBankLayout",
    "make_layout",
    "NVMStore",
    "WQEntry",
    "WriteQueue",
]
