"""The one-time-pad engine for counter-mode encryption.

Counter-mode encryption (paper Figure 3) derives a 64-byte pad from
``(secret key, line address, counter)`` and XORs it with the memory line.
Security rests on one property: the pad for a given ``(address, counter)``
pair is pseudorandom and never reused. Any PRF with a secret key provides
this; the paper uses a pipelined AES engine because that is what hardware
ships.

:class:`PRFPadEngine` builds the pad from ``SHA-256(key || address ||
counter || i)`` blocks. SHA-256 runs in C inside CPython, and the
construction keeps the unique-pseudorandom-pad property. This
substitution is recorded in DESIGN.md. The timing model charges
``TimingConfig.aes_cycles`` per pad whatever function builds it, so the
choice of PRF moves no simulated result.

The engine is a deterministic function of its key, which is what lets
crash-recovery experiments re-derive pads after a simulated power failure.
It does not memoize: figure sweeps run at timing fidelity and build no
pads, and the full-fidelity runs (recovery sweep, Table 1) almost never
ask for the same ``(address, counter)`` pad twice.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable, List, Tuple

from repro.common.errors import ConfigError


class PRFPadEngine:
    """SHA-256-based PRF pad generation.

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

