"""Benchmark + shape check for Table 1 (crash recoverability)."""

from repro.experiments import table1


def test_table1_recoverability(run_once, benchmark):
    rows = run_once(table1.points, [], [])
    by_key = {(r.system, r.stage): r for r in rows}

    # Paper Table 1 (unprotected encrypted NVM): Yes / No / No.
    assert by_key[("unprotected", "prepare")].recoverable
    assert not by_key[("unprotected", "mutate")].recoverable
    assert not by_key[("unprotected", "commit")].recoverable
    # SuperMem: recoverable at every stage.
    for stage in table1.STAGES:
        assert by_key[("supermem", stage)].recoverable

    benchmark.extra_info["rows"] = [
        (r.system, r.stage, r.recoverable, r.recovered_value) for r in rows
    ]
