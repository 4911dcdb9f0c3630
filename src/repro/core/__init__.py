"""SuperMem's core: scheme assembly, the secure memory system, crash/recovery.

* :mod:`repro.core.schemes` — the seven evaluated configurations (Unsec,
  WB, WT, WT+CWC, WT+XBank, SuperMem, SuperMem+BMT) as config transformers;
* :mod:`repro.core.system` — :class:`SecureMemorySystem`, the
  application-facing memory system: encrypted writes with the atomicity
  register, write-through/-back counter handling, encrypted reads with
  counter-cache overlap, minor-counter overflow handling;
* :mod:`repro.core.reencrypt` — the re-encryption status register (RSR) and
  page re-encryption (Section 3.4.4);
* :mod:`repro.core.crash` — crash-point injection and the durable image a
  power failure leaves behind;
* :mod:`repro.core.recovery` — rebuilding counters and plaintext from a
  durable image, including RSR resume.
"""

from repro.core.crash import CrashController, DurableImage
from repro.core.osiris import OsirisRecovery, OsirisRecoveryReport
from repro.core.recovery import RecoveredSystem
from repro.core.reencrypt import RSRRecord
from repro.core.schemes import Scheme, scheme_config
from repro.core.system import SecureMemorySystem

__all__ = [
    "CrashController",
    "DurableImage",
    "OsirisRecovery",
    "OsirisRecoveryReport",
    "RecoveredSystem",
    "RSRRecord",
    "Scheme",
    "scheme_config",
    "SecureMemorySystem",
]
