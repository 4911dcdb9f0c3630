"""The undo-log region: wire format, allocation, and post-crash scanning.

Each log entry occupies a whole number of lines:

* one 64 B **header** line: magic, transaction id, target address, length,
  state (valid / invalidated), and a checksum over all header fields;
* ``ceil(length / 64)`` **payload** lines holding the old data.

The checksum is what lets recovery *detect* an undecryptable entry: when a
crash loses the counters that encrypted the log (the paper's Table 1
mutate/commit rows for unprotected systems), decryption yields garbage, the
magic/checksum test fails, and the entry — along with the data it was
guarding — is unrecoverable. With SuperMem the log always decrypts and the
scan returns clean entries.

Entries are allocated bump-style and wrap around the region (a circular
log); by the time the cursor wraps, earlier transactions have committed and
their entries are invalid.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.common.address import CACHE_LINE_SIZE
from repro.common.errors import SimulationError

LOG_MAGIC = 0x534D4C47  # "SMLG"
STATE_VALID = 1
STATE_INVALID = 0
#: Redo logging only: the transaction's commit record is written — replay
#: must (re)apply the logged new data.
STATE_COMMITTED = 2

#: Entry kinds: undo entries hold the *old* data (valid => roll back),
#: redo entries hold the *new* data (committed => roll forward).
KIND_UNDO = 0
KIND_REDO = 1

_HEADER_FMT = "<IIIIQQIQ"  # magic, state, kind, pad, txn_id, target, length, checksum
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)


def _checksum(txn_id: int, target_addr: int, length: int, state: int, kind: int) -> int:
    """Order-sensitive 64-bit mix over the header fields."""
    value = 0xCBF29CE484222325
    for field in (LOG_MAGIC, state, kind, txn_id, target_addr, length):
        value ^= field & 0xFFFFFFFFFFFFFFFF
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value


@dataclass
class LogEntry:
    """A parsed (or to-be-written) log entry."""

    txn_id: int
    target_addr: int
    length: int
    state: int = STATE_VALID
    #: Logged bytes: old data for undo entries, new data for redo entries.
    old_data: bytes = b""
    kind: int = KIND_UNDO
    #: Byte address of the header line in the log region.
    header_addr: int = -1

    @property
    def payload_lines(self) -> int:
        return (self.length + CACHE_LINE_SIZE - 1) // CACHE_LINE_SIZE

    @property
    def total_lines(self) -> int:
        return 1 + self.payload_lines

    def header_bytes(self) -> bytes:
        """The 64 B header line image."""
        packed = struct.pack(
            _HEADER_FMT,
            LOG_MAGIC,
            self.state,
            self.kind,
            0,
            self.txn_id,
            self.target_addr,
            self.length,
            _checksum(self.txn_id, self.target_addr, self.length, self.state, self.kind),
        )
        return packed + bytes(CACHE_LINE_SIZE - _HEADER_SIZE)

    @classmethod
    def parse_header(cls, data: bytes, header_addr: int = -1) -> Optional["LogEntry"]:
        """Parse a header line; returns None when it is not a clean header.

        Garbage (from an undecryptable log line) fails the magic or
        checksum test — this is the detection mechanism recovery relies on.
        """
        if len(data) < _HEADER_SIZE:
            return None
        magic, state, kind, _pad, txn_id, target_addr, length, checksum = (
            struct.unpack_from(_HEADER_FMT, data, 0)
        )
        if magic != LOG_MAGIC:
            return None
        if checksum != _checksum(txn_id, target_addr, length, state, kind):
            return None
        if state not in (STATE_VALID, STATE_INVALID, STATE_COMMITTED):
            return None
        if kind not in (KIND_UNDO, KIND_REDO):
            return None
        return cls(
            txn_id=txn_id,
            target_addr=target_addr,
            length=length,
            state=state,
            kind=kind,
            header_addr=header_addr,
        )


class LogRegion:
    """Circular allocator of log entries within a contiguous region."""

    def __init__(self, base_addr: int, size: int):
        if base_addr % CACHE_LINE_SIZE or size % CACHE_LINE_SIZE:
            raise SimulationError("log region must be line-aligned")
        if size < 2 * CACHE_LINE_SIZE:
            raise SimulationError("log region too small for any entry")
        self.base_addr = base_addr
        self.size = size
        self._cursor = 0

    @property
    def end_addr(self) -> int:
        return self.base_addr + self.size

    def allocate(self, entry_lines: int) -> int:
        """Reserve space for ``entry_lines`` lines; returns the header addr.

        Wraps to the start when the tail cannot fit the entry contiguously
        (entries never straddle the wrap point so the scanner stays simple).
        """
        need = entry_lines * CACHE_LINE_SIZE
        if need > self.size:
            raise SimulationError(
                f"log entry of {entry_lines} lines exceeds region size {self.size}"
            )
        if self._cursor + need > self.size:
            self._cursor = 0
        addr = self.base_addr + self._cursor
        self._cursor += need
        return addr


def scan_log(
    region: LogRegion,
    read_line: Callable[[int], bytes],
) -> List[LogEntry]:
    """Walk the region and parse every clean header found.

    Parameters
    ----------
    region:
        The log region to scan.
    read_line:
        ``byte_addr -> 64 bytes`` — typically the recovered system's
        :meth:`~repro.core.recovery.RecoveredSystem.plaintext_of` adapted
        to byte addresses.

    Returns
    -------
    list of LogEntry
        Parsed entries (valid and invalidated), with ``old_data``
        populated from the payload lines. Corrupt headers are skipped;
        the *caller* decides whether a missing-but-needed entry means the
        state is unrecoverable.
    """
    entries: List[LogEntry] = []
    addr = region.base_addr
    while addr < region.end_addr:
        header = LogEntry.parse_header(read_line(addr), header_addr=addr)
        if header is None:
            addr += CACHE_LINE_SIZE
            continue
        payload = bytearray()
        for i in range(header.payload_lines):
            payload += read_line(addr + (1 + i) * CACHE_LINE_SIZE)
        header.old_data = bytes(payload[: header.length])
        entries.append(header)
        addr += header.total_lines * CACHE_LINE_SIZE
    return entries
