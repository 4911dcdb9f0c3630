"""Bench-trend analytics: history accumulation and drift detection."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def mod():
    spec = importlib.util.spec_from_file_location(
        "bench_history", REPO_ROOT / "tools" / "bench_history.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(**speedup):
    return {"ts": 0.0, "speedup": speedup}


def _bench_payload(**speedup):
    return {
        "speedup": speedup,
        "runs": [
            {"name": "full-fidelity", "wall_s": 2.0, "scale": "smoke"},
            {"name": "timing-fidelity", "wall_s": 0.5, "scale": "smoke"},
        ],
        "host_cpus": 8,
    }


class TestLoadHistory:
    def test_missing_file_is_empty(self, mod, tmp_path):
        assert mod.load_history(str(tmp_path / "absent.jsonl")) == []

    def test_torn_and_blank_lines_tolerated(self, mod, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"speedup": {"timing_vs_full": 3.0}}\n\n{"spee\n[1,2]\n')
        records = mod.load_history(str(path))
        assert len(records) == 1  # torn line and non-dict dropped
        assert records[0]["speedup"]["timing_vs_full"] == 3.0


class TestRecordFromBench:
    def test_distills_speedup_walls_and_host(self, mod, tmp_path):
        path = tmp_path / "BENCH_SWEEP.json"
        path.write_text(json.dumps(_bench_payload(timing_vs_full=3.0)))
        record = mod.record_from_bench(str(path))
        assert record["speedup"] == {"timing_vs_full": 3.0}
        assert record["wall_s"] == {"full-fidelity": 2.0, "timing-fidelity": 0.5}
        assert record["scale"] == "smoke"
        assert record["host_cpus"] == 8
        assert record["ts"] > 0


class TestFindRegressions:
    def test_short_history_never_flags(self, mod):
        history = [_record(timing_vs_full=3.0)]
        assert mod.find_regressions(history, _record(timing_vs_full=0.1)) == []

    def test_drop_in_higher_is_better_ratio_is_flagged(self, mod):
        history = [_record(parallel_vs_serial=4.0) for _ in range(3)]
        flags = mod.find_regressions(history, _record(parallel_vs_serial=2.0))
        assert len(flags) == 1
        assert "parallel_vs_serial" in flags[0]
        assert "below" in flags[0]

    def test_rise_in_overhead_ratio_is_flagged(self, mod):
        history = [_record(probe_overhead=1.0) for _ in range(3)]
        flags = mod.find_regressions(history, _record(probe_overhead=1.5))
        assert len(flags) == 1
        assert "probe_overhead" in flags[0]
        assert "above" in flags[0]

    def test_good_directions_are_not_flagged(self, mod):
        history = [_record(parallel_vs_serial=4.0, probe_overhead=1.0)] * 3
        current = _record(parallel_vs_serial=8.0, probe_overhead=0.5)
        assert mod.find_regressions(history, current) == []

    def test_within_tolerance_is_not_flagged(self, mod):
        history = [_record(timing_vs_full=3.0)] * 3
        assert mod.find_regressions(history, _record(timing_vs_full=2.5)) == []
        assert mod.find_regressions(
            history, _record(timing_vs_full=2.5), tolerance=0.10
        ) != []

    def test_window_limits_the_trailing_median(self, mod):
        # Old fast runs age out of the window; the recent median rules.
        fast, slow = _record(timing_vs_full=9.0), _record(timing_vs_full=2.0)
        history = [fast] * 5 + [slow] * 3
        assert mod.find_regressions(history, slow, window=3) == []
        assert mod.find_regressions(history, slow, window=8) != []

    def test_new_key_without_prior_samples_is_skipped(self, mod):
        history = [_record(timing_vs_full=3.0)] * 3
        assert mod.find_regressions(
            history, _record(timing_vs_full=3.0, probe_overhead=9.9)
        ) == []


class TestCli:
    def test_append_and_report(self, mod, tmp_path, capsys):
        bench = tmp_path / "BENCH_SWEEP.json"
        bench.write_text(json.dumps(_bench_payload(timing_vs_full=3.0)))
        history = tmp_path / "h.jsonl"
        for _ in range(3):
            assert mod.main([str(bench), "--history", str(history)]) == 0
        assert len(mod.load_history(str(history))) == 3
        out = capsys.readouterr().out
        assert "3 total" in out
        assert "no ratio drifted beyond tolerance" in out
        assert mod.main(["--report", "--history", str(history)]) == 0
        report = capsys.readouterr().out
        assert "last 3 of 3 run(s)" in report
        assert "timing_vs_full" in report

    def test_strict_fails_on_drift(self, mod, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        with open(history, "w") as fh:
            for _ in range(3):
                fh.write(json.dumps(_record(timing_vs_full=4.0)) + "\n")
        bench = tmp_path / "BENCH_SWEEP.json"
        bench.write_text(json.dumps(_bench_payload(timing_vs_full=1.0)))
        assert mod.main([str(bench), "--history", str(history)]) == 0  # advisory
        assert "DRIFT" in capsys.readouterr().err
        assert (
            mod.main([str(bench), "--history", str(history), "--strict"]) == 1
        )

    def test_no_arguments_errors(self, mod, tmp_path):
        with pytest.raises(SystemExit):
            mod.main(["--history", str(tmp_path / "h.jsonl")])

    def test_format_report_empty(self, mod):
        assert "no history" in mod.format_report([])
