"""Fault-tolerant, resumable experiment runner.

Every experiment in the suite is an embarrassingly parallel grid of
independent simulation points — fig13 alone is 5 workloads x 3 sizes x 7
schemes = 105 serial runs. This module turns such grids into lists of
picklable :class:`PointSpec` records and executes them either in-process
(``jobs=1``, the default) or across a pool of worker processes. Every
point runs at timing fidelity, the simulators' default, except that the
recovery kernel forces full fidelity because it audits recovered bytes.

Determinism: results are keyed by spec position, never by completion
order — ``run_points`` returns ``results[i]`` for ``specs[i]`` regardless
of which worker finished first, and each point simulates a fresh, isolated
memory system, so ``--jobs N`` output is bit-identical to serial. The
guarantee is asserted point-for-point (including every stats counter) by
``tests/experiments/test_runner.py``.

Fault tolerance: the paper's whole subject is surviving crashes, and the
harness holds itself to the same standard. A worker that dies (hard exit,
unpicklable result, injected fault), hangs past the per-point wall-clock
timeout, or returns garbage poisons only its own point: the runner
records the attempt, retries with exponential backoff up to
:class:`RunnerPolicy.max_attempts`, replaces the dead worker, and — when
the parallel budget is exhausted — degrades to one last serial in-process
execution before giving up. Points that still fail surface as structured
:class:`PointFailure` records on the :class:`RunnerReport`;
:func:`run_points` then raises :class:`~repro.common.errors.SweepError`
listing exactly the poisoned points. Deterministic fault injection for
tests and drills lives in :mod:`repro.experiments.faults`
(``REPRO_FAULT=point:<k>:crash|hang|corrupt``).

Resume: pass ``journal=<path>`` (CLI: ``repro run ... --resume <path>``)
and every completed point is appended to an on-disk JSONL keyed by a
content digest of (spec, config, code-version salt) — see
:mod:`repro.experiments.journal`. Re-running against the same journal
skips finished points, and because journaled results round-trip exactly,
an interrupted sweep resumed this way is bit-identical to an
uninterrupted one (the golden-digest guarantee extends across a SIGKILL).

Trace reuse: each worker process keeps its own
:mod:`repro.sim.trace_cache`, so a worker that simulates several schemes
of the same (workload, size, seed) point generates the trace once.
Serial runs share the parent process's cache the same way.

Accounting: the returned :class:`RunnerReport` is the sweep's one
ledger. Progress is logged to stderr, closed by one accounting line per
sweep when it resumed, retried, timed out, fell back to serial, or
dropped torn journal lines; the line prints the report's counts.
Simulation-time tracers (:class:`repro.obs.Tracer`) remain per-run
objects and are not supported across process boundaries — trace a
single point with ``repro simulate --trace`` instead (see
``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.common.config import SimConfig
from repro.common.errors import ConfigError, SweepError
from repro.core.schemes import Scheme
from repro.experiments.faults import (
    CRASH_EXIT_CODE,
    FAULT_CORRUPT,
    FAULT_CRASH,
    FAULT_HANG,
    FaultPlan,
    InjectedFault,
)
from repro.experiments.journal import SweepJournal, spec_digest
from repro.sim.metrics import SimResult


@dataclass(frozen=True)
class PointSpec:
    """One independent simulation point of an experiment grid.

    Picklable by construction (enums, numbers, strings, and the frozen
    ``SimConfig`` dataclass), so specs can cross process boundaries.
    ``n_programs`` selects the kernel: ``None`` runs the single-core
    :func:`~repro.sim.simulator.simulate_workload`; an integer runs the
    multi-programmed :func:`~repro.sim.multicore.simulate_multiprogrammed`
    with that many copies of ``workload``. A spec names no fidelity: both
    kernels run at timing fidelity, which gives the same results as full.
    """

    workload: str
    scheme: Scheme
    n_ops: int
    request_size: int = 1024
    #: ``None`` lets the multi-programmed kernel default to one bank's worth.
    footprint: Optional[int] = 1 << 20
    base_config: Optional[SimConfig] = None
    seed: int = 1
    warmup_ops: int = 0
    counter_organization: str = "split"
    #: ``None`` = single-core; N = multi-programmed with N programs.
    n_programs: Optional[int] = None
    #: Execution kernel: ``"simulate"`` (the timing simulators above) or
    #: ``"recovery"`` (the timed post-crash recovery model of
    #: :func:`repro.core.recovery_cost.run_recovery_point`).
    kernel: str = "simulate"
    #: Kernel-specific knobs as a tuple of ``(key, value)`` pairs — kept
    #: hashable and picklable so specs stay frozen and journal-digestable.
    kernel_params: Tuple[Tuple[str, object], ...] = ()

    def label(self) -> str:
        """Short human label for progress/failure reporting."""
        return f"{self.workload}/{self.scheme.value}/{self.request_size}B"


@dataclass(frozen=True)
class RunnerPolicy:
    """Retry/timeout budget governing one sweep.

    The defaults retry transient failures twice (three attempts total)
    with exponential backoff, never time points out (simulation points
    have no natural wall-clock bound; the CLI exposes
    ``--point-timeout``), and fall back to one serial in-process attempt
    after the parallel budget is spent — a hung pool or a worker-side
    environment problem should not take down a sweep that the parent
    process could finish by itself.
    """

    #: Wall-clock seconds one point may run in a worker before the worker
    #: is killed and the attempt counts as failed. ``None`` = no timeout.
    point_timeout_s: Optional[float] = None
    #: Total execution attempts per point (1 = no retry).
    max_attempts: int = 3
    #: Base of the exponential backoff between attempts of one point
    #: (attempt ``n`` waits ``backoff_s * 2**(n-1)`` seconds).
    backoff_s: float = 0.05
    #: After parallel attempts are exhausted, re-execute the failed point
    #: serially in the parent before recording a failure.
    serial_fallback: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.point_timeout_s is not None and self.point_timeout_s <= 0:
            raise ConfigError(
                f"point_timeout_s must be positive, got {self.point_timeout_s}"
            )
        if self.backoff_s < 0:
            raise ConfigError(f"backoff_s must be >= 0, got {self.backoff_s}")


@dataclass
class PointFailure:
    """One point that exhausted its retry (and fallback) budget."""

    index: int
    digest: str
    label: str
    attempts: int
    exc_type: str
    traceback_tail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "digest": self.digest,
            "label": self.label,
            "attempts": self.attempts,
            "exc_type": self.exc_type,
            "traceback_tail": self.traceback_tail,
        }


@dataclass
class RunnerReport:
    """Fault/resume accounting for one :func:`run_points` call."""

    label: str
    #: Failed attempts that were retried (includes timeouts).
    retries: int = 0
    #: Attempts killed by the per-point wall-clock timeout.
    timeouts: int = 0
    #: Points satisfied from the resume journal without re-execution.
    resumed: int = 0
    #: Points rescued by the post-pool serial in-process fallback.
    serial_fallbacks: int = 0
    #: Undecodable resume-journal lines dropped at load (see
    #: :attr:`SweepJournal.torn_tails`).
    torn_tails: int = 0
    #: Points that exhausted every attempt (run_points raises on these).
    failures: List[PointFailure] = field(default_factory=list)


#: Called after each completed point with (done, total).
ProgressFn = Callable[[int, int], None]

#: Sentinel a ``corrupt`` fault substitutes for the worker's real result;
#: any non-SimResult return is rejected the same way.
_CORRUPT_SENTINEL = "<corrupt-result>"

_default_policy = RunnerPolicy()


def set_default_policy(policy: RunnerPolicy) -> None:
    """Install the policy used when ``run_points`` gets ``policy=None``.

    The CLI maps ``--point-timeout``/``--retries`` here so every
    experiment module inherits the budget without signature churn.
    """
    global _default_policy
    _default_policy = policy


def _run_point(spec: PointSpec) -> SimResult:
    """Execute one spec (also the child-process entry point)."""
    if spec.kernel == "recovery":
        from repro.core.recovery_cost import run_recovery_point

        return run_recovery_point(spec)
    if spec.kernel != "simulate":
        raise ConfigError(f"unknown point kernel {spec.kernel!r}")
    if spec.n_programs is not None:
        from repro.sim.multicore import simulate_multiprogrammed

        return simulate_multiprogrammed(
            spec.workload,
            spec.scheme,
            n_programs=spec.n_programs,
            n_ops=spec.n_ops,
            request_size=spec.request_size,
            footprint=spec.footprint,
            base_config=spec.base_config,
            seed=spec.seed,
        )
    from repro.sim.simulator import simulate_workload

    return simulate_workload(
        spec.workload,
        spec.scheme,
        n_ops=spec.n_ops,
        request_size=spec.request_size,
        footprint=spec.footprint,
        base_config=spec.base_config,
        seed=spec.seed,
        warmup_ops=spec.warmup_ops,
        counter_organization=spec.counter_organization,
    )


def default_jobs() -> int:
    """A sensible ``--jobs auto`` value: the machine's CPU count."""
    return os.cpu_count() or 1


def _log_progress(label: str, done: int, total: int, jobs: int) -> None:
    print(
        f"[runner] {label}: {done}/{total} points (jobs={jobs})",
        file=sys.stderr,
    )


def _log_accounting(report: RunnerReport) -> None:
    """One stderr line of a sweep's resume and fault accounting.

    Printed only when the sweep resumed, retried, timed out, fell back
    to serial, or dropped torn journal lines.
    """
    counts = [
        ("resumed", report.resumed),
        ("retries", report.retries),
        ("timeouts", report.timeouts),
        ("serial_fallbacks", report.serial_fallbacks),
        ("torn_tails", report.torn_tails),
    ]
    if any(count for _, count in counts):
        fields = " ".join(f"{key}={count}" for key, count in counts)
        print(f"[runner] {report.label}: {fields}", file=sys.stderr)


class _ProgressReporter:
    """The default throttled stderr reporter (~10% granularity).

    One reporter serves the whole sweep, so journal-resume replays and
    fresh completions share a single throttle: the replay prints exactly
    one line (however many points it covered), fresh completions then
    continue the stepped cadence from that count, and the final point
    always prints — no duplicate and no skipped lines, where the old
    ad-hoc ``done % step`` lambda fired the throttle with an arbitrary
    aggregate count after a resume.
    """

    def __init__(self, label: str, total: int, jobs: int):
        self.label = label
        self.total = total
        self.jobs = jobs
        self.step = max(1, total // 10)
        self._last_printed = 0

    def replay(self, done: int, resumed: int) -> None:
        """One line for an entire journal-resume replay."""
        print(
            f"[runner] {self.label}: resumed {resumed} journaled points "
            f"({done}/{self.total})",
            file=sys.stderr,
        )
        self._last_printed = done

    def update(self, done: int, total: Optional[int] = None) -> None:
        """ProgressFn-compatible throttled update."""
        if done == self._last_printed:
            return
        if done >= self.total or done - self._last_printed >= self.step:
            self._last_printed = done
            _log_progress(self.label, done, self.total, self.jobs)


def _traceback_tail(limit: int = 6) -> str:
    """The last ``limit`` lines of the current exception's traceback."""
    lines = traceback.format_exc().strip().splitlines()
    return "\n".join(lines[-limit:])


def run_points(
    specs: Sequence[PointSpec],
    jobs: int = 1,
    label: str = "sweep",
    progress: Optional[ProgressFn] = None,
    policy: Optional[RunnerPolicy] = None,
    journal: Optional[Union[str, SweepJournal]] = None,
    faults: Optional[FaultPlan] = None,
) -> List[SimResult]:
    """Run every spec; returns results in spec order (deterministic).

    ``jobs=1`` executes in-process; ``jobs>1`` fans out over a worker
    pool. ``progress`` (or a default stderr logger for multi-point grids)
    is invoked after each completed point with ``(done, total)``.

    Raises :class:`~repro.common.errors.SweepError` if any point
    exhausted its retry budget — after every other point completed.
    Callers that want the partial results instead use
    :func:`run_points_report` and read ``report.failures``.
    """
    results, report = run_points_report(
        specs,
        jobs=jobs,
        label=label,
        progress=progress,
        policy=policy,
        journal=journal,
        faults=faults,
    )
    if report.failures:
        raise SweepError(report.failures)
    return results  # type: ignore[return-value]


def run_points_report(
    specs: Sequence[PointSpec],
    jobs: int = 1,
    label: str = "sweep",
    progress: Optional[ProgressFn] = None,
    policy: Optional[RunnerPolicy] = None,
    journal: Optional[Union[str, SweepJournal]] = None,
    faults: Optional[FaultPlan] = None,
) -> Tuple[List[Optional[SimResult]], RunnerReport]:
    """Like :func:`run_points` but never raises on point failures.

    Returns ``(results, report)`` where ``results[i]`` is ``None`` for
    every point listed in ``report.failures`` — the sweep runs to the end
    regardless. ``journal`` (a path or an open :class:`SweepJournal`)
    enables resume: journaled points are returned without re-execution
    and fresh completions are appended; undecodable lines the journal
    dropped at load are counted on ``report.torn_tails``. ``faults``
    defaults to the ``REPRO_FAULT`` environment plan (see
    :mod:`repro.experiments.faults`).
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    policy = policy if policy is not None else _default_policy
    if faults is None:
        faults = FaultPlan.from_env()
    if isinstance(journal, str):
        journal = SweepJournal(journal)

    specs = list(specs)
    total = len(specs)
    report = RunnerReport(
        label=label,
        torn_tails=journal.torn_tails if journal is not None else 0,
    )
    reporter: Optional[_ProgressReporter] = None
    if progress is None and total > 1:
        # Log at ~10% granularity so big sweeps stay readable; one
        # reporter per sweep so resume replays share the throttle.
        reporter = _ProgressReporter(label, total, jobs)
        progress = reporter.update

    results: List[Optional[SimResult]] = [None] * total
    digests = [spec_digest(spec) for spec in specs]

    # Resume: satisfy journaled points without re-execution.
    done_count = 0
    remaining: List[int] = []
    for index, digest in enumerate(digests):
        cached = journal.get(digest) if journal is not None else None
        if cached is not None:
            results[index] = cached
            report.resumed += 1
            done_count += 1
        else:
            remaining.append(index)
    if report.resumed:
        if reporter is not None:
            reporter.replay(done_count, report.resumed)
        elif progress is not None:
            progress(done_count, total)

    def on_done(index: int, result: SimResult) -> None:
        nonlocal done_count
        results[index] = result
        if journal is not None:
            journal.record(digests[index], specs[index].label(), result)
        done_count += 1
        if progress is not None:
            progress(done_count, total)

    if remaining:
        if jobs == 1 or len(remaining) <= 1:
            _run_serial(specs, remaining, digests, report, policy, faults, on_done)
        else:
            _run_parallel(
                specs, remaining, digests, jobs, report, policy, faults, on_done
            )

    for failure in report.failures:
        if journal is not None:
            journal.record_failure(
                failure.digest, failure.label, failure.to_dict()
            )
        print(
            f"[runner] {label}: point #{failure.index} ({failure.label}) "
            f"FAILED after {failure.attempts} attempts: {failure.exc_type}",
            file=sys.stderr,
        )

    _log_accounting(report)
    return results, report


# ----------------------------------------------------------------------
# Serial execution (and the shared attempt/backoff loop)
# ----------------------------------------------------------------------


def _attempt_in_process(
    spec: PointSpec, index: int, attempt: int, faults: Optional[FaultPlan]
) -> SimResult:
    """One in-process attempt, honouring an armed fault.

    ``hang`` degrades to ``crash`` in-process: sleeping would block the
    whole sweep, and the point of the serial path is that the parent
    itself executes the point — there is no one left to kill it.
    """
    fault = faults.fault_for(index, attempt) if faults else None
    if fault in (FAULT_CRASH, FAULT_HANG):
        raise InjectedFault(f"injected {fault} at point {index} attempt {attempt}")
    result = _run_point(spec)
    if fault == FAULT_CORRUPT:
        result = _CORRUPT_SENTINEL  # type: ignore[assignment]
    if not isinstance(result, SimResult):
        raise InjectedFault(
            f"point {index} returned a corrupt result: {type(result).__name__}"
        )
    return result


def _run_serial(
    specs: List[PointSpec],
    indices: Sequence[int],
    digests: List[str],
    report: RunnerReport,
    policy: RunnerPolicy,
    faults: Optional[FaultPlan],
    on_done: Callable[[int, SimResult], None],
) -> None:
    for index in indices:
        spec = specs[index]
        last_exc = ("", "")
        attempt = 0
        while attempt < policy.max_attempts:
            attempt += 1
            try:
                result = _attempt_in_process(spec, index, attempt, faults)
            except ConfigError:
                # A misconfigured spec is a programming error, not a
                # transient fault — no retry will change the outcome.
                raise
            except Exception:
                last_exc = (sys.exc_info()[0].__name__, _traceback_tail())
                if attempt < policy.max_attempts:
                    report.retries += 1
                    time.sleep(policy.backoff_s * (2 ** (attempt - 1)))
                continue
            on_done(index, result)
            break
        else:
            report.failures.append(
                PointFailure(
                    index=index,
                    digest=digests[index],
                    label=spec.label(),
                    attempts=attempt,
                    exc_type=last_exc[0],
                    traceback_tail=last_exc[1],
                )
            )


# ----------------------------------------------------------------------
# Parallel execution: a worker pool the sweep can outlive
# ----------------------------------------------------------------------
#
# concurrent.futures.ProcessPoolExecutor treats one dead worker as fatal
# (BrokenProcessPool poisons every outstanding future) and cannot kill a
# hung task at all. The pool below keeps the same submission model —
# picklable spec in, picklable result out over a pipe — but supervises
# each worker individually: a worker past its deadline is killed and
# replaced, a worker that dies mid-point costs one attempt of that point
# only, and the rest of the sweep never notices.


def _worker_main(conn) -> None:
    """Child-process loop: recv (index, spec, fault), send the outcome."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if message is None:
            return
        index, spec, fault = message
        if fault == FAULT_CRASH:
            os._exit(CRASH_EXIT_CODE)
        if fault == FAULT_HANG:
            while True:  # rescued only by the parent's timeout kill
                time.sleep(3600)
        try:
            result = _run_point(spec)
            payload = (
                "ok",
                index,
                _CORRUPT_SENTINEL if fault == FAULT_CORRUPT else result,
            )
        except BaseException as exc:  # noqa: BLE001 - reported to parent
            payload = ("err", index, type(exc).__name__, _traceback_tail())
        try:
            conn.send(payload)
        except Exception:
            # Unpicklable result: die loudly; the parent records the
            # attempt as a worker death and retries.
            os._exit(1)


class _Worker:
    """One supervised worker process with its command/result pipe."""

    def __init__(self, ctx):
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()
        #: (index, attempt) of the in-flight point, None when idle.
        self.running: Optional[Tuple[int, int]] = None
        self.deadline: Optional[float] = None

    def submit(
        self,
        index: int,
        attempt: int,
        spec: PointSpec,
        fault: Optional[str],
        timeout_s: Optional[float],
    ) -> None:
        self.running = (index, attempt)
        self.deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        self.conn.send((index, spec, fault))

    def kill(self) -> None:
        try:
            self.process.kill()
        except Exception:
            pass
        self.process.join(timeout=5)
        self.conn.close()

    def shutdown(self) -> None:
        """Polite stop for an idle worker (fall back to kill)."""
        try:
            self.conn.send(None)
        except Exception:
            pass
        self.process.join(timeout=1)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5)
        self.conn.close()


def _run_parallel(
    specs: List[PointSpec],
    indices: Sequence[int],
    digests: List[str],
    jobs: int,
    report: RunnerReport,
    policy: RunnerPolicy,
    faults: Optional[FaultPlan],
    on_done: Callable[[int, SimResult], None],
) -> None:
    from multiprocessing import connection as mpc

    ctx = multiprocessing.get_context()
    n_workers = min(jobs, len(indices))
    # Ready-to-run (index, attempt) pairs; retries wait in a time heap so
    # backoff never stalls unrelated points.
    ready = deque((index, 1) for index in indices)
    retry_heap: List[Tuple[float, int, int]] = []  # (ready_at, index, attempt)
    exhausted: Dict[int, Tuple[int, str, str]] = {}  # index -> (attempts, exc, tb)
    workers = [_Worker(ctx) for _ in range(n_workers)]

    def replace_worker(worker: _Worker) -> None:
        worker.kill()
        workers[workers.index(worker)] = _Worker(ctx)

    def record_attempt_failure(
        index: int, attempt: int, exc_type: str, tb_tail: str
    ) -> None:
        if attempt < policy.max_attempts:
            report.retries += 1
            ready_at = time.monotonic() + policy.backoff_s * (2 ** (attempt - 1))
            heapq.heappush(retry_heap, (ready_at, index, attempt + 1))
        else:
            exhausted[index] = (attempt, exc_type, tb_tail)

    def handle_message(worker: _Worker) -> None:
        index, attempt = worker.running  # type: ignore[misc]
        worker.running = None
        worker.deadline = None
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            # Worker died mid-point (hard exit, segfault, unpicklable
            # result). Replace it; charge the point one attempt.
            replace_worker(worker)
            record_attempt_failure(
                index, attempt, "WorkerDied", "worker process exited mid-point"
            )
            return
        status = message[0]
        if status == "ok":
            result = message[2]
            if isinstance(result, SimResult):
                on_done(index, result)
            else:
                record_attempt_failure(
                    index,
                    attempt,
                    "CorruptResult",
                    f"worker returned {type(result).__name__}",
                )
        else:
            record_attempt_failure(index, attempt, message[2], message[3])

    try:
        while ready or retry_heap or any(w.running is not None for w in workers):
            now = time.monotonic()
            while retry_heap and retry_heap[0][0] <= now:
                _, index, attempt = heapq.heappop(retry_heap)
                ready.append((index, attempt))
            for slot, worker in enumerate(workers):
                if worker.running is None and ready:
                    index, attempt = ready.popleft()
                    fault = faults.fault_for(index, attempt) if faults else None
                    try:
                        worker.submit(
                            index, attempt, specs[index], fault, policy.point_timeout_s
                        )
                    except OSError:
                        # The worker died between points; replace it and
                        # charge the submission as one failed attempt.
                        replace_worker(worker)
                        record_attempt_failure(
                            index, attempt, "WorkerDied", "pipe closed on submit"
                        )
            busy = [w for w in workers if w.running is not None]
            if not busy:
                if retry_heap:
                    time.sleep(
                        min(0.05, max(0.0, retry_heap[0][0] - time.monotonic()))
                    )
                continue
            # Wake on the first result, the nearest deadline, or the next
            # retry becoming ready — whichever comes first.
            wake_at: Optional[float] = None
            for w in busy:
                if w.deadline is not None:
                    wake_at = w.deadline if wake_at is None else min(wake_at, w.deadline)
            if retry_heap:
                head = retry_heap[0][0]
                wake_at = head if wake_at is None else min(wake_at, head)
            timeout = (
                max(0.0, wake_at - time.monotonic()) if wake_at is not None else None
            )
            ready_conns = mpc.wait([w.conn for w in busy], timeout)
            by_conn = {w.conn: w for w in busy}
            for conn in ready_conns:
                handle_message(by_conn[conn])
            now = time.monotonic()
            for worker in busy:
                if (
                    worker.running is not None
                    and worker.conn not in ready_conns
                    and worker.deadline is not None
                    and now >= worker.deadline
                ):
                    index, attempt = worker.running
                    report.timeouts += 1
                    replace_worker(worker)
                    record_attempt_failure(
                        index,
                        attempt,
                        "PointTimeout",
                        f"exceeded {policy.point_timeout_s}s wall-clock budget",
                    )
    finally:
        for worker in workers:
            if worker.running is None:
                worker.shutdown()
            else:
                worker.kill()

    # Graceful degradation: one last serial in-process attempt per
    # exhausted point before recording a failure.
    for index, (attempts, exc_type, tb_tail) in sorted(exhausted.items()):
        spec = specs[index]
        if policy.serial_fallback:
            attempts += 1
            try:
                result = _attempt_in_process(spec, index, attempts, faults)
            except Exception:
                exc_type, tb_tail = sys.exc_info()[0].__name__, _traceback_tail()
            else:
                report.serial_fallbacks += 1
                on_done(index, result)
                continue
        report.failures.append(
            PointFailure(
                index=index,
                digest=digests[index],
                label=spec.label(),
                attempts=attempts,
                exc_type=exc_type,
                traceback_tail=tb_tail,
            )
        )
