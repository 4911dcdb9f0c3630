"""Persistence primitives as pluggable memory domains.

A *memory domain* exposes the operations a persistent data structure needs
— ``load``, ``store``, ``clwb``, ``sfence``, transaction markers — without
fixing what happens underneath. Two implementations:

``TraceDomain``
    Records a compact operation trace (plain tuples for speed) that the
    timing simulator replays through the CPU caches and the memory system.
    Optionally keeps functional line contents so traces can carry payloads.

``DirectDomain``
    Applies operations straight to a functional
    :class:`~repro.core.system.SecureMemorySystem`, modelling the volatile
    CPU-cache contents as a line buffer: stores stay volatile until
    ``clwb`` pushes the line into the persistence domain. This is the
    executor for crash experiments — a crash loses exactly the lines that
    were stored but never flushed.

Trace op encoding (tuples; first element is the opcode):

====================  =======================================
``(OP_LOAD, line)``         demand load of one line
``(OP_STORE, line)``        store touching one line
``(OP_CLWB, line, bytes)``  flush one line (payload may be None)
``(OP_FENCE,)``             sfence
``(OP_TXN_BEGIN, id)``      transaction start marker
``(OP_TXN_END, id)``        transaction end marker
``(OP_COMPUTE, ns)``        CPU work outside the memory system
====================  =======================================
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple

from repro.common.address import CACHE_LINE_SIZE
from repro.common.errors import SimulationError
from repro.core.system import SecureMemorySystem

OP_LOAD = 0
OP_STORE = 1
OP_CLWB = 2
OP_FENCE = 3
OP_TXN_BEGIN = 4
OP_TXN_END = 5
OP_COMPUTE = 6

#: Human-readable opcode names (debugging / trace dumps).
OP_NAMES = {
    OP_LOAD: "load",
    OP_STORE: "store",
    OP_CLWB: "clwb",
    OP_FENCE: "sfence",
    OP_TXN_BEGIN: "txn_begin",
    OP_TXN_END: "txn_end",
    OP_COMPUTE: "compute",
}

TraceOp = Tuple


def lines_of_range(addr: int, size: int) -> range:
    """Line indices overlapped by ``[addr, addr+size)``."""
    if size <= 0:
        raise SimulationError(f"zero/negative access size at {addr:#x}")
    first = addr // CACHE_LINE_SIZE
    last = (addr + size - 1) // CACHE_LINE_SIZE
    return range(first, last + 1)


class MemoryDomain(abc.ABC):
    """The persistence interface data structures are written against."""

    #: Whether loads return real bytes (and stores require them).
    functional: bool = False

    @abc.abstractmethod
    def load(self, addr: int, size: int) -> Optional[bytes]:
        """Read ``size`` bytes at ``addr`` (emits read traffic)."""

    @abc.abstractmethod
    def store(self, addr: int, size: int, data: Optional[bytes] = None) -> None:
        """Write ``size`` bytes at ``addr`` (volatile until flushed)."""

    @abc.abstractmethod
    def clwb(self, addr: int, size: int = CACHE_LINE_SIZE) -> None:
        """Flush every line overlapping ``[addr, addr+size)``."""

    @abc.abstractmethod
    def sfence(self) -> None:
        """Order prior flushes before subsequent writes."""

    def peek(self, addr: int, size: int) -> Optional[bytes]:
        """Read ``size`` bytes at ``addr`` WITHOUT emitting read traffic.

        Workloads use this when they need current contents to compute a
        functional write (e.g. the array swap) but the corresponding
        timing-visible loads are emitted elsewhere — keeping the op
        stream identical between functional and timing-only traces.
        Defaults to :meth:`load` for domains whose loads are side-effect
        free.
        """
        return self.load(addr, size)

    def txn_begin(self, txn_id: int) -> None:  # noqa: B027 - optional hook
        """Mark a transaction start (trace bookkeeping only)."""

    def txn_end(self, txn_id: int) -> None:  # noqa: B027 - optional hook
        """Mark a transaction end."""

    def compute(self, ns: float) -> None:  # noqa: B027 - optional hook
        """Account CPU work outside the memory system."""

    def persist_store(self, addr: int, size: int, data: Optional[bytes] = None) -> None:
        """Convenience: store + clwb of the touched lines."""
        self.store(addr, size, data)
        self.clwb(addr, size)


class TraceDomain(MemoryDomain):
    """Records the operation stream for the timing simulator.

    Parameters
    ----------
    track_payloads:
        Keep functional line contents and attach them to CLWB ops. Needed
        only when the trace will drive a functional simulation; timing
        sweeps leave it off for speed.
    """

    def __init__(self, track_payloads: bool = False):
        self.ops: List[TraceOp] = []
        self.track_payloads = track_payloads
        self.functional = track_payloads
        self._content: Dict[int, bytearray] = {}

    # -- content helpers ------------------------------------------------

    def _line_buf(self, line: int) -> bytearray:
        buf = self._content.get(line)
        if buf is None:
            buf = bytearray(CACHE_LINE_SIZE)
            self._content[line] = buf
        return buf

    def _write_content(self, addr: int, data: bytes) -> None:
        offset = 0
        while offset < len(data):
            line = (addr + offset) // CACHE_LINE_SIZE
            within = (addr + offset) % CACHE_LINE_SIZE
            chunk = min(CACHE_LINE_SIZE - within, len(data) - offset)
            self._line_buf(line)[within : within + chunk] = data[
                offset : offset + chunk
            ]
            offset += chunk

    def _read_content(self, addr: int, size: int) -> bytes:
        out = bytearray()
        offset = 0
        while offset < size:
            line = (addr + offset) // CACHE_LINE_SIZE
            within = (addr + offset) % CACHE_LINE_SIZE
            chunk = min(CACHE_LINE_SIZE - within, size - offset)
            buf = self._content.get(line)
            piece = buf[within : within + chunk] if buf else bytes(chunk)
            out += piece
            offset += chunk
        return bytes(out)

    # -- MemoryDomain ----------------------------------------------------

    def load(self, addr: int, size: int) -> Optional[bytes]:
        append = self.ops.append
        for line in lines_of_range(addr, size):
            append((OP_LOAD, line))
        if self.track_payloads:
            return self._read_content(addr, size)
        return None

    def peek(self, addr: int, size: int) -> Optional[bytes]:
        """Current contents without recording any trace ops."""
        if self.track_payloads:
            return self._read_content(addr, size)
        return None

    def store(self, addr: int, size: int, data: Optional[bytes] = None) -> None:
        append = self.ops.append
        for line in lines_of_range(addr, size):
            append((OP_STORE, line))
        if self.track_payloads and data is not None:
            self._write_content(addr, data)

    def clwb(self, addr: int, size: int = CACHE_LINE_SIZE) -> None:
        append = self.ops.append
        for line in lines_of_range(addr, size):
            if self.track_payloads:
                append((OP_CLWB, line, bytes(self._line_buf(line))))
            else:
                append((OP_CLWB, line, None))

    def sfence(self) -> None:
        self.ops.append((OP_FENCE,))

    def txn_begin(self, txn_id: int) -> None:
        self.ops.append((OP_TXN_BEGIN, txn_id))

    def txn_end(self, txn_id: int) -> None:
        self.ops.append((OP_TXN_END, txn_id))

    def compute(self, ns: float) -> None:
        self.ops.append((OP_COMPUTE, ns))

    def take_ops(self) -> List[TraceOp]:
        """Detach and return the accumulated trace."""
        ops = self.ops
        self.ops = []
        return ops


class DirectDomain(MemoryDomain):
    """Drives a functional memory system, modelling volatile CPU caches.

    Stores land in a volatile line buffer; ``clwb`` persists the buffered
    line through :meth:`SecureMemorySystem.persist_line`. Loads prefer the
    volatile copy (cache hit) and otherwise read the persistent plaintext.
    Time advances by the durability latency of each flush, so the same
    driver doubles as a coarse timing harness in functional tests.
    """

    functional = True

    def __init__(self, system: SecureMemorySystem, core: int = 0):
        self.system = system
        self.core = core
        self.now: float = 0.0
        self._volatile: Dict[int, bytearray] = {}
        self._dirty: set[int] = set()
        #: Lines flushed at least once — the experiment's shadow universe.
        self.flushed_shadow: Dict[int, bytes] = {}

    def _line_buf(self, line: int) -> bytearray:
        buf = self._volatile.get(line)
        if buf is None:
            base = self.system.functional_read_plaintext(line)
            buf = bytearray(base)
            self._volatile[line] = buf
        return buf

    def load(self, addr: int, size: int) -> Optional[bytes]:
        out = bytearray()
        offset = 0
        while offset < size:
            line = (addr + offset) // CACHE_LINE_SIZE
            within = (addr + offset) % CACHE_LINE_SIZE
            chunk = min(CACHE_LINE_SIZE - within, size - offset)
            buf = self._volatile.get(line)
            if buf is None:
                piece = self.system.functional_read_plaintext(line)[
                    within : within + chunk
                ]
            else:
                piece = bytes(buf[within : within + chunk])
            out += piece
            offset += chunk
        return bytes(out)

    def store(self, addr: int, size: int, data: Optional[bytes] = None) -> None:
        if data is None:
            raise SimulationError("DirectDomain stores require real bytes")
        if len(data) != size:
            raise SimulationError(f"store size mismatch: {len(data)} != {size}")
        offset = 0
        while offset < size:
            line = (addr + offset) // CACHE_LINE_SIZE
            within = (addr + offset) % CACHE_LINE_SIZE
            chunk = min(CACHE_LINE_SIZE - within, size - offset)
            self._line_buf(line)[within : within + chunk] = data[
                offset : offset + chunk
            ]
            self._dirty.add(line)
            offset += chunk

    def clwb(self, addr: int, size: int = CACHE_LINE_SIZE) -> None:
        for line in lines_of_range(addr, size):
            if line not in self._dirty:
                continue  # clean line: clwb is a no-op at memory
            payload = bytes(self._volatile[line])
            durable = self.system.persist_line(
                self.now, line, payload=payload, core=self.core
            )
            self._dirty.discard(line)
            self.now = max(self.now, durable) + 1.0
            self.flushed_shadow[line] = payload

    def sfence(self) -> None:
        # persist_line is synchronous in this driver; the fence only
        # advances time a little.
        self.now += 1.0

    def compute(self, ns: float) -> None:
        self.now += ns
