"""Counter-mode memory encryption for the secure NVM.

This package implements the cryptographic substrate of SuperMem:

* :mod:`repro.crypto.engine` — the pad engine: a SHA-256 PRF standing in
  for the paper's AES pipeline, which preserves the property counter mode
  needs (a unique pseudorandom pad per ``(key, line address, counter)``);
* :mod:`repro.crypto.counters` — the split-counter layout: one 64-bit major
  counter per 4 KB page plus 64 seven-bit minor counters, all packed in one
  64 B memory line (paper Figure 9);
* :mod:`repro.crypto.otp` — line encryption/decryption by XOR with the pad
  (paper Figure 3).
"""

from repro.crypto.counters import CounterBlock, MINOR_COUNTER_MAX
from repro.crypto.engine import PRFPadEngine
from repro.crypto.otp import LineCipher

__all__ = [
    "CounterBlock",
    "MINOR_COUNTER_MAX",
    "PRFPadEngine",
    "LineCipher",
]
