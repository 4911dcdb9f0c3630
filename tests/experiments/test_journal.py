"""Sweep journal: digest stability, lossless round-trip, crash tolerance."""

import dataclasses
import json

from repro.common.stats import Stats
from repro.core.schemes import Scheme
from repro.experiments import fig13
from repro.experiments.common import experiment_base_config, get_scale
from repro.experiments.journal import (
    JOURNAL_SALT,
    SweepJournal,
    digest_salt,
    result_from_record,
    result_to_record,
    spec_digest,
)
from repro.experiments.runner import PointSpec
from repro.sim.metrics import SimResult
from tests.experiments.grids import narrow


def _spec(**overrides):
    base = experiment_base_config(get_scale("smoke"))
    defaults = dict(
        workload="array",
        scheme=Scheme.SUPERMEM,
        n_ops=10,
        request_size=256,
        footprint=1 << 20,
        base_config=base,
        seed=1,
    )
    defaults.update(overrides)
    return PointSpec(**defaults)


def _result() -> SimResult:
    stats = Stats()
    stats.set("nvm", "writes", 42)
    stats.set("wq", "coalesced", 7.5)
    return SimResult(
        total_time_ns=123456.789, txn_latencies=[10.0, 20.5, 31.25], stats=stats
    )


class TestSpecDigest:
    def test_stable_for_equal_specs(self):
        assert spec_digest(_spec()) == spec_digest(_spec())

    def test_every_field_matters(self):
        base = spec_digest(_spec())
        assert spec_digest(_spec(seed=2)) != base
        assert spec_digest(_spec(request_size=1024)) != base
        assert spec_digest(_spec(scheme=Scheme.UNSEC)) != base

    def test_nested_config_matters(self):
        spec = _spec()
        tweaked = dataclasses.replace(
            spec,
            base_config=dataclasses.replace(
                spec.base_config, cwc_enabled=not spec.base_config.cwc_enabled
            ),
        )
        assert spec_digest(spec) != spec_digest(tweaked)

    def test_salt_invalidates(self):
        spec = _spec()
        assert spec_digest(spec) == spec_digest(spec, salt=digest_salt())
        assert spec_digest(spec) != spec_digest(spec, salt="other-version")

    def test_digest_is_pinned(self):
        """A digest input that moves silently orphans every ``--resume``
        journal. A change that moves the digest on purpose re-pins it
        here and bumps ``JOURNAL_SALT`` in the same change."""
        _, specs = narrow(fig13.specs("smoke"), lambda cell: cell[1] == 1024)
        assert specs[0].label() == "array/unsec/1024B"
        assert JOURNAL_SALT == "supermem-journal-v8"
        assert spec_digest(specs[0], salt="pin") == (
            "68e396858ff692e96e7cdd66281a32ed9a6a09ad1277be45fa98be1793eabc29"
        )


class TestResultRoundTrip:
    def test_exact_through_json(self):
        original = _result()
        # Simulate the full disk trip: record -> JSON text -> record.
        record = json.loads(json.dumps(result_to_record(original)))
        rebuilt = result_from_record(record)
        assert rebuilt.total_time_ns == original.total_time_ns
        assert rebuilt.txn_latencies == original.txn_latencies
        assert rebuilt.stats.snapshot() == original.stats.snapshot()


class TestSweepJournal:
    def test_record_and_reload(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        digest = spec_digest(_spec())
        journal = SweepJournal(path)
        assert journal.get(digest) is None
        journal.record(digest, "array/supermem/256B", _result())
        assert len(journal) == 1

        reloaded = SweepJournal(path)
        cached = reloaded.get(digest)
        assert cached is not None
        assert cached.total_time_ns == _result().total_time_ns
        assert cached.stats.snapshot() == _result().stats.snapshot()

    def test_record_is_idempotent(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = SweepJournal(path)
        digest = spec_digest(_spec())
        journal.record(digest, "p", _result())
        journal.record(digest, "p", _result())
        with open(path) as fh:
            assert sum(1 for _ in fh) == 1

    def test_torn_tail_is_dropped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = SweepJournal(path)
        journal.record(spec_digest(_spec()), "p", _result())
        with open(path, "a") as fh:
            fh.write('{"kind": "point", "digest": "abc", "resu')  # SIGKILL here
        reloaded = SweepJournal(path)
        assert len(reloaded) == 1

    def test_wrong_salt_is_ignored(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        digest = spec_digest(_spec())
        record = {
            "kind": "point",
            "digest": digest,
            "salt": "supermem-journal-v0:0.0",
            "result": result_to_record(_result()),
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(record) + "\n")
        assert SweepJournal(path).get(digest) is None

    def test_failures_load_but_never_resume(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = SweepJournal(path)
        journal.record_failure("deadbeef", "p", {"exc_type": "RuntimeError"})
        reloaded = SweepJournal(path)
        assert reloaded.get("deadbeef") is None
        assert reloaded.failures["deadbeef"]["exc_type"] == "RuntimeError"
