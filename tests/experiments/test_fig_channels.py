"""Determinism suite for the fig-channels sweep.

Mirrors the fig13 runner guarantees for the channel-count sensitivity
sweep: ``--jobs N`` output bit-identical to serial, a fixed-seed golden
digest pinning the smoke numbers, and journal resume that survives a
SIGKILL-torn tail and satisfies the whole grid from disk
(``executed_points == 0``).
"""

import hashlib

import pytest

from repro.core.schemes import Scheme
from repro.experiments import fig_channels, suite

#: sha256 over the canonical serialization in :func:`_digest` for the
#: smoke fig-channels points (:func:`_run`). Regenerate ONLY for an
#: intentional model change:
#:   PYTHONPATH=src:. python -c "from tests.experiments.test_fig_channels \
#:       import _digest, _run; print(_digest(_run()))"
FIG_CHANNELS_SMOKE_DIGEST = (
    "4217718fa49fbf5664bb543cd8e7e85d5bdb053c4ad867f42fe3b106e150494a"
)


def _run(**runner):
    """The smoke sweep as ``repro run fig-channels`` runs it."""
    return suite.run("fig-channels", "smoke", **runner)["fig-channels"]


def _digest(points) -> str:
    canon = "\n".join(
        f"{p.workload}/{p.n_channels}/{p.scheme.value}"
        f"={p.avg_latency_ns!r}/{p.normalized!r}"
        for p in points
    )
    return hashlib.sha256(canon.encode()).hexdigest()


class TestFigChannelsDeterminism:
    def test_parallel_points_identical_and_golden(self):
        serial = _run()
        parallel = _run(jobs=4)
        # Point-for-point dataclass equality: workload, channel count,
        # scheme, raw latency, and the normalised value all match.
        assert serial == parallel
        assert _digest(serial) == FIG_CHANNELS_SMOKE_DIGEST
        assert _digest(parallel) == FIG_CHANNELS_SMOKE_DIGEST

    def test_resume_after_sigkill_executes_nothing(self, tmp_path, capsys):
        journal = str(tmp_path / "fig-channels.jsonl")
        first = _run(journal=journal)
        # SIGKILL mid-append: the journal is left with a torn tail.
        with open(journal, "a") as fh:
            fh.write('{"kind": "point", "digest": "abc", "resu')
        capsys.readouterr()
        second = _run(journal=journal)
        assert first == second
        # Every grid point came from the journal; nothing re-executed.
        # The runner's accounting line reports the resume and the torn tail.
        assert (
            f"[runner] fig-channels: resumed={len(second)} retries=0 timeouts=0 "
            f"serial_fallbacks=0 torn_tails=1"
        ) in capsys.readouterr().err.splitlines()


class TestFigChannelsShape:
    def test_grid_covers_workloads_channels_schemes(self):
        points = _run()
        assert {p.scheme for p in points} == set(fig_channels.SCHEMES)
        assert {p.n_channels for p in points} == set(fig_channels.CHANNEL_COUNTS)
        for scheme in fig_channels.SCHEMES:
            for p in points:
                if p.scheme is scheme and p.n_channels == 1:
                    assert p.normalized == 1.0

    def test_widest_config_beats_narrowest(self):
        """The acceptance shape: monotone bank-conflict relief as
        channels grow at fixed n_banks."""
        points = _run()
        series = {}
        for p in points:
            series.setdefault((p.workload, p.scheme), []).append(p)
        for row in series.values():
            row = sorted(row, key=lambda p: p.n_channels)
            assert row[-1].avg_latency_ns < row[0].avg_latency_ns

    def test_validate_rejects_inverted_relief(self):
        points = _run()
        import dataclasses

        worst = max(points, key=lambda p: p.n_channels)
        broken = [
            dataclasses.replace(p, avg_latency_ns=p.avg_latency_ns * 10.0)
            if p is worst
            else p
            for p in points
        ]
        with pytest.raises(AssertionError):
            fig_channels.validate(broken)

    def test_render_emits_one_table_per_scheme(self):
        points = _run()
        text = fig_channels.render(points)
        assert text.count("Channel sweep:") == len(fig_channels.SCHEMES)
        assert Scheme.SUPERMEM_BMT.label in text
