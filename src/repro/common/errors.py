"""Exception hierarchy for the SuperMem reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with one handler while still
distinguishing configuration mistakes from simulation-time faults.
"""


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class SimulationError(ReproError):
    """The simulator reached an internally inconsistent state.

    This indicates a bug in the model (or misuse of internal APIs), not a
    property of the simulated system.
    """


class SecurityError(ReproError):
    """A security invariant of counter-mode encryption was violated.

    Raised, for example, when a one-time pad would be reused (same address
    and counter encrypting two different writes) or when decryption is
    attempted with a counter that does not match the ciphertext.
    """


class SweepError(ReproError):
    """One or more sweep points exhausted their retry budget.

    Raised by :func:`repro.experiments.runner.run_points` after the sweep
    *completed* — every healthy point ran to the end; the failures listed
    here poisoned only themselves. The structured
    :class:`~repro.experiments.runner.PointFailure` records ride along so
    callers can report or re-drive exactly the failed points.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        lines = ", ".join(
            f"#{f.index} {f.label} ({f.exc_type} after {f.attempts} attempts)"
            for f in self.failures
        )
        super().__init__(
            f"{len(self.failures)} sweep point(s) failed after retries: {lines}"
        )


class CrashInjected(ReproError):
    """Control-flow exception thrown when an injected crash point fires.

    Crash-injection experiments register a :class:`~repro.core.crash.CrashPlan`
    with the memory system; when the trigger condition is met the system
    raises ``CrashInjected`` to unwind to the experiment harness, which then
    inspects the durable state (NVM contents plus the ADR-protected write
    queue) exactly as a real power failure would leave it.
    """

    def __init__(self, point: str = "", detail: str = ""):
        self.point = point
        self.detail = detail
        message = f"crash injected at {point!r}" if point else "crash injected"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
