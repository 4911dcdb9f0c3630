"""Line-level counter-mode encryption (paper Figure 3).

A :class:`LineCipher` encrypts and decrypts whole 64 B memory lines by
XOR with a one-time pad derived from ``(key, line address, counter)`` by
:class:`~repro.crypto.engine.PRFPadEngine`. Encryption and decryption are the
same XOR, as in any stream construction; what distinguishes them in the
memory system is *which* counter value is used — the caller must bump the
counter before encrypting a new write and must use the stored counter when
decrypting.

The cipher optionally tracks pad uniqueness: in paranoid mode it raises
:class:`~repro.common.errors.SecurityError` if the same ``(address,
counter)`` pair is ever used to encrypt twice, which is exactly the OTP
reuse the counter scheme exists to prevent. Tests use this to prove the
split-counter bump/overflow logic never reuses a pad.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from repro.common.address import CACHE_LINE_SIZE
from repro.common.errors import SecurityError
from repro.crypto.engine import PRFPadEngine


def xor_bytes(data: bytes, pad: bytes) -> bytes:
    """XOR two equal-length byte strings.

    Implemented as one big-int XOR: ``int.from_bytes``/``to_bytes`` run in
    C, so a 64 B line costs three primitive calls instead of a 64-iteration
    Python generator with per-byte allocations.
    """
    n = len(data)
    if n != len(pad):
        raise ValueError(f"length mismatch: {n} vs {len(pad)}")
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(pad, "little")
    ).to_bytes(n, "little")


class LineCipher:
    """Counter-mode encryption of 64 B lines.

    Parameters
    ----------
    key:
        Secret key of the :class:`~repro.crypto.engine.PRFPadEngine`.
    track_pad_reuse:
        When True, every encryption records its ``(address, counter)`` pair
        and a repeat raises :class:`SecurityError`.
    """

    def __init__(
        self,
        key: bytes = b"supermem-default-key",
        track_pad_reuse: bool = False,
    ):
        self._engine = PRFPadEngine(key)
        self._track = track_pad_reuse
        self._used_pads: Set[Tuple[int, int]] = set()

    def encrypt(self, line_addr: int, counter: int, plaintext: bytes) -> bytes:
        """Encrypt one line under ``counter``.

        ``line_addr`` is the *line index* (not byte address); using the
        index keeps the pad input independent of the line size.
        """
        self._check_line(plaintext)
        if self._track:
            pair = (line_addr, counter)
            if pair in self._used_pads:
                raise SecurityError(
                    f"one-time pad reuse: line {line_addr:#x} counter {counter}"
                )
            self._used_pads.add(pair)
        return xor_bytes(plaintext, self._engine.pad(line_addr, counter))

    def decrypt(self, line_addr: int, counter: int, ciphertext: bytes) -> bytes:
        """Decrypt one line; correct only with the counter used to encrypt."""
        self._check_line(ciphertext)
        return xor_bytes(ciphertext, self._engine.pad(line_addr, counter))

    def decrypt_lines(
        self, items: Iterable[Tuple[int, int, bytes]]
    ) -> List[bytes]:
        """Decrypt many ``(line_addr, counter, ciphertext)`` triples at once.

        Recovery scans decrypt whole pages (or the full written image) in
        one pass; batching routes all pad derivations through
        :meth:`PRFPadEngine.pads`, which binds the hash primitive once
        instead of per-line.
        """
        triples = list(items)
        for _, _, ciphertext in triples:
            self._check_line(ciphertext)
        pads = self._engine.pads((line, counter) for line, counter, _ in triples)
        return [
            xor_bytes(ciphertext, pad)
            for (_, _, ciphertext), pad in zip(triples, pads)
        ]

    @staticmethod
    def _check_line(data: bytes) -> None:
        if len(data) != CACHE_LINE_SIZE:
            raise ValueError(
                f"memory lines are {CACHE_LINE_SIZE} bytes, got {len(data)}"
            )
