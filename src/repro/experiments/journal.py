"""On-disk sweep journal: completed points keyed by content digest.

The runner journals every completed point as one JSONL line, keyed by a
sha256 digest of the *content* of the point — the full
:class:`~repro.experiments.runner.PointSpec` (workload, scheme, sizes,
seed, and the entire nested :class:`~repro.common.config.SimConfig`) plus
a code-version salt. A re-run of the same sweep against the same journal
(``repro run ... --resume <journal>``) recognises finished points by
digest and skips them; because the journaled record round-trips the
simulation result exactly (floats survive JSON via shortest-repr), an
interrupted sweep resumed this way is bit-identical to an uninterrupted
one — the same golden-digest guarantee the parallel runner makes against
serial execution.

Robustness properties the resume guarantee rests on:

* **Content keys, not positions.** A digest covers everything that
  determines a result, so reordering specs, changing the grid, or mixing
  experiments in one journal file cannot alias two different points.
* **Salted by code version.** :data:`JOURNAL_SALT` plus
  ``repro.__version__`` is folded into every digest; bumping either
  invalidates stale journals wholesale instead of silently replaying
  results from an older model.
* **Torn tails are expected.** A SIGKILL can land mid-append, leaving a
  truncated final line. Loading tolerates (and drops) undecodable lines,
  so a journal written up to the instant of death resumes cleanly.
* **Append-only, flushed per point.** Records are flushed (and fsynced)
  as soon as a point completes; a crash loses at most the in-flight
  point, never a completed one.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from typing import Dict, Iterator, Optional, Tuple

from repro.common.stats import Stats
from repro.sim.metrics import SimResult

#: Bump when a model change intentionally shifts simulation results —
#: this (with ``repro.__version__``) invalidates every existing journal.
#: v2: PointSpec grew ``fidelity`` and SimConfig grew ``fidelity`` plus
#: a hot-path switch, changing every spec's asdict() shape.
#: v3: SimConfig grew a batched-replay switch, changing the asdict() shape
#: again (results are bit-identical; the shape alone invalidates).
#: v4: SimConfig lost both switches (one execution path); results are
#: bit-identical, the asdict() shape changed.
JOURNAL_SALT = "supermem-journal-v4"


def _jsonify(obj: object) -> object:
    if isinstance(obj, enum.Enum):
        return obj.value
    raise TypeError(f"not journal-serialisable: {obj!r}")


def digest_salt() -> str:
    """The full salt folded into every spec digest."""
    from repro import __version__

    return f"{JOURNAL_SALT}:{__version__}"


def spec_digest(spec, salt: Optional[str] = None) -> str:
    """Content digest of one :class:`PointSpec` (plus the code salt).

    Two specs share a digest iff every field — including the whole nested
    ``SimConfig`` — is equal, so a journal lookup can never confuse two
    points that would simulate differently.
    """
    spec_dict = dataclasses.asdict(spec)
    base_config = spec_dict.get("base_config")
    if isinstance(base_config, dict):
        # The outcome-store path is a harness knob: store hits are
        # bit-identical to the compute path, so runs with and without a
        # configured store must share digests (and digests must match
        # journals written before the field existed — no salt bump).
        base_config.pop("outcome_store", None)
    payload = {
        "salt": salt if salt is not None else digest_salt(),
        "spec": spec_dict,
    }
    canon = json.dumps(payload, sort_keys=True, default=_jsonify)
    return hashlib.sha256(canon.encode()).hexdigest()


def result_to_record(result: SimResult) -> Dict[str, object]:
    """Lossless JSON form of a :class:`SimResult`.

    Covers everything any experiment's ``render``/``validate`` reads:
    the simulated wall clock, every transaction latency, and every raw
    counter of the shared statistics registry.
    """
    return {
        "total_time_ns": result.total_time_ns,
        "txn_latencies": list(result.txn_latencies),
        "stats": [[space, counter, value] for space, counter, value in result.stats],
    }


def result_from_record(record: Dict[str, object]) -> SimResult:
    """Rebuild a :class:`SimResult` journaled by :func:`result_to_record`."""
    stats = Stats()
    for space, counter, value in record["stats"]:  # type: ignore[union-attr]
        stats.set(space, counter, value)
    return SimResult(
        total_time_ns=record["total_time_ns"],  # type: ignore[arg-type]
        txn_latencies=list(record["txn_latencies"]),  # type: ignore[arg-type]
        stats=stats,
    )


class SweepJournal:
    """Append-only JSONL store of completed (and failed) sweep points.

    One journal file can serve many sweeps — digests make records
    self-identifying — so ``--resume sweep.jsonl`` works for ``run all``
    as naturally as for a single figure.
    """

    def __init__(self, path: str):
        self.path = path
        self._results: Dict[str, SimResult] = {}
        #: Failure records loaded from disk (digest -> record), kept for
        #: post-mortem inspection; failures are never "resumed".
        self.failures: Dict[str, Dict[str, object]] = {}
        #: Undecodable lines dropped during load — 0 or 1 after a clean
        #: kill (the torn tail), more only if the file was corrupted.
        #: The runner surfaces this as ``repro_journal_torn_tails_total``.
        self.torn_tails = 0
        #: Records appended by this process (points + failures).
        self.records_written = 0
        self._salt = digest_salt()
        self._load()

    # -- loading ---------------------------------------------------------

    def _iter_lines(self) -> Iterator[Tuple[int, Dict[str, object]]]:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # A SIGKILL mid-append leaves a torn tail; drop it.
                    self.torn_tails += 1
                    continue
                if isinstance(record, dict):
                    yield lineno, record

    def _load(self) -> None:
        for _, record in self._iter_lines():
            if record.get("salt") != self._salt:
                continue  # journal written by a different code version
            digest = record.get("digest")
            if not isinstance(digest, str):
                continue
            if record.get("kind") == "failure":
                self.failures[digest] = record
                continue
            try:
                self._results[digest] = result_from_record(record["result"])
            except (KeyError, TypeError, ValueError):
                continue

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._results)

    def get(self, digest: str) -> Optional[SimResult]:
        """The journaled result for ``digest``, or ``None``."""
        return self._results.get(digest)

    # -- appends ---------------------------------------------------------

    def _append(self, record: Dict[str, object]) -> None:
        record["salt"] = self._salt
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True, default=_jsonify))
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        self.records_written += 1

    def record(self, digest: str, label: str, result: SimResult) -> None:
        """Journal one completed point (idempotent per digest)."""
        if digest in self._results:
            return
        self._results[digest] = result
        self._append(
            {
                "kind": "point",
                "digest": digest,
                "label": label,
                "result": result_to_record(result),
            }
        )

    def record_failure(self, digest: str, label: str, failure: Dict[str, object]) -> None:
        """Journal one exhausted-retries failure for post-mortem reading."""
        self.failures[digest] = dict(failure)
        self._append(
            {"kind": "failure", "digest": digest, "label": label, **failure}
        )
