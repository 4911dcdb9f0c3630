"""Host-speed probe: scales measured host times to one reference speed.

On a shared host the speed of a CPU drifts by tens of percent within
seconds, as neighbours come and go, and CPU time drifts with it. So
each timed interval is bracketed by probes, each the fastest of three
runs of a fixed pure-Python kernel: table lookups and a write-queue-like
scan over slotted objects, like the simulator's work, but no ``repro``
code, so a faster simulator cannot make the probe faster. Over 80 s on
a 2-CPU host its time correlated with a 35 ms simulated point's at 0.76,
against 0.73 for a small-dict loop. A time ``t`` measured where
the probe takes ``p`` seconds is reported as ``t * REFERENCE_S / p``:
what it would take on a host where the probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import random
import time
from typing import List

#: Probe time that defines the reference speed (a quiet 2-CPU sandbox
#: host runs the probe in about 0.9 ms).
REFERENCE_S = 1e-3

#: A 16 K-entry table read at 800 fixed random keys: lookups that miss
#: the small caches, as the simulator's line and page maps do.
_TABLE = {key: key for key in range(1 << 14)}
_KEYS = tuple(random.Random(1).randrange(1 << 14) for _ in range(800))


class _Counter:
    __slots__ = ("total", "weight")

    def __init__(self) -> None:
        self.total = 0
        self.weight = 0.0

    def add(self, key: int, x: float) -> None:
        self.total += key
        self.weight += x * 0.5


class _Entry:
    __slots__ = ("line", "bank", "time")

    def __init__(self, line: int, bank: int, time_ns: float) -> None:
        self.line = line
        self.bank = bank
        self.time = time_ns


def _kernel() -> float:
    clock = time.perf_counter
    table = _TABLE
    counter = _Counter()
    queue: dict = {}
    t0 = clock()
    for key in _KEYS:
        counter.add(key & 7, float(table[key]))
    # A write-queue-like scan: insert, then evict the oldest of 32.
    for seq in range(600):
        line = (seq * 2654435761) & 0xFFFFF
        queue[seq] = _Entry(line, line & 7, float(seq))
        if len(queue) > 32:
            oldest_seq = oldest = None
            for queued_seq, entry in queue.items():
                if oldest is None or entry.time < oldest.time:
                    oldest_seq, oldest = queued_seq, entry
            del queue[oldest_seq]
    return clock() - t0


def probe() -> float:
    """Seconds of the fastest of three kernel runs, taken now."""
    return min(_kernel(), _kernel(), _kernel())


def scale(probe_s: float) -> float:
    """Factor that turns a time measured where the probe takes ``probe_s``
    into reference seconds."""
    return REFERENCE_S / probe_s


class SpeedLog:
    """Probes taken before timed intervals, and the time they cost."""

    def __init__(self) -> None:
        self.probes: List[float] = []
        #: Wall time spent probing, to leave out of enclosing intervals.
        self.spent_s = 0.0

    def measure(self) -> None:
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.spent_s += time.perf_counter() - t0
