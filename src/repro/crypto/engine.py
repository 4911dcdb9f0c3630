"""Pluggable one-time-pad engines for counter-mode encryption.

Counter-mode encryption (paper Figure 3) derives a 64-byte pad from
``(secret key, line address, counter)`` and XORs it with the memory line.
Security rests on one property: the pad for a given ``(address, counter)``
pair is pseudorandom and never reused. Any PRF with a secret key provides
this; the paper uses a pipelined AES engine because that is what hardware
ships.

Two engines are provided:

* :class:`AESPadEngine` — the faithful construction. Each 16-byte pad block
  is ``AES_k(address || counter || block_index)``, so a 64 B line needs four
  AES block encryptions. Pure-Python AES makes this the slow path; it is
  used in tests and high-fidelity functional runs.
* :class:`PRFPadEngine` — the default. The pad is
  ``SHA-256(key || address || counter || i)`` blocks concatenated. SHA-256
  is implemented in C inside CPython, so this is two orders of magnitude
  faster while preserving the unique-pseudorandom-pad property. This
  substitution is recorded in DESIGN.md.

Both engines are deterministic functions of their key, which is what lets
crash-recovery experiments re-derive pads after a simulated power failure.
Neither memoizes: figure sweeps run at timing fidelity and build no pads,
and the full-fidelity runs (recovery sweep, Table 1) almost never ask for
the same ``(address, counter)`` pad twice.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable, List, Protocol, Tuple

from repro.common.address import CACHE_LINE_SIZE
from repro.common.errors import ConfigError
from repro.crypto.aes import AES128


class PadEngine(Protocol):
    """A deterministic one-time-pad generator."""

    def pad(self, line_addr: int, counter: int) -> bytes:
        """Return ``CACHE_LINE_SIZE`` pad bytes for ``(line_addr, counter)``."""
        ...

    def pads(self, pairs: Iterable[Tuple[int, int]]) -> List[bytes]:
        """Return pads for many ``(line_addr, counter)`` pairs at once."""
        ...


class AESPadEngine:
    """Faithful AES-128 pad generation (four blocks per 64 B line).

    The 16-byte AES input packs the line address (8 bytes), the counter
    (7 bytes — enough for a 56-bit combined major/minor value far beyond
    NVM endurance), and the block index (1 byte), mirroring how hardware
    feeds the line address and counter into the AES pipeline.
    """

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise ConfigError("AES pad engine needs a 16-byte key")
        self._cipher = AES128(key)

    def pad(self, line_addr: int, counter: int) -> bytes:
        blocks = []
        counter_bytes = (counter & ((1 << 56) - 1)).to_bytes(7, "little")
        for index in range(CACHE_LINE_SIZE // AES128.BLOCK_SIZE):
            seed = struct.pack("<Q", line_addr) + counter_bytes + bytes([index])
            blocks.append(self._cipher.encrypt_block(seed))
        return b"".join(blocks)

    def pads(self, pairs: Iterable[Tuple[int, int]]) -> List[bytes]:
        """Batch pad generation for recovery scans."""
        pad = self.pad
        return [pad(line, counter) for line, counter in pairs]


class PRFPadEngine:
    """SHA-256-based PRF pad generation (fast default).

    ``pad = SHA256(key || addr || counter || 0) || SHA256(key || addr ||
    counter || 1)`` truncated to 64 bytes.
    """

    def __init__(self, key: bytes):
        if not key:
            raise ConfigError("PRF pad engine needs a non-empty key")
        self._key = bytes(key)

    def pad(self, line_addr: int, counter: int) -> bytes:
        prefix = self._key + struct.pack("<QQ", line_addr, counter)
        sha256 = hashlib.sha256
        return sha256(prefix + b"\x00").digest() + sha256(prefix + b"\x01").digest()

    def pads(self, pairs: Iterable[Tuple[int, int]]) -> List[bytes]:
        """Batch pad generation for multi-line recovery scans.

        Binds ``hashlib.sha256``, the key, and ``struct.pack`` locally.
        """
        sha256 = hashlib.sha256
        pack = struct.pack
        base = self._key
        out = []
        for line_addr, counter in pairs:
            prefix = base + pack("<QQ", line_addr, counter)
            out.append(
                sha256(prefix + b"\x00").digest()
                + sha256(prefix + b"\x01").digest()
            )
        return out


def make_engine(kind: str, key: bytes) -> PadEngine:
    """Build a pad engine by name.

    Parameters
    ----------
    kind:
        ``"aes"`` for the reference AES-128 engine, ``"prf"`` for the fast
        SHA-256 engine.
    key:
        Secret key; 16 bytes for AES, any non-empty length for PRF.
    """
    if kind == "aes":
        return AESPadEngine(key)
    if kind == "prf":
        return PRFPadEngine(key)
    raise ConfigError(f"unknown pad engine {kind!r} (expected 'aes' or 'prf')")
