"""Tests for JSON export of experiment points."""

import json

from repro.core.schemes import Scheme
from repro.experiments.export import export_json, points_to_records
from repro.experiments.fig13 import Fig13Point
from repro.experiments.table1 import Table1Row


def sample_points():
    return [
        Fig13Point(
            workload="array",
            request_size=1024,
            scheme=Scheme.SUPERMEM,
            avg_latency_ns=123.4,
            normalized=1.05,
        ),
        Fig13Point(
            workload="array",
            request_size=1024,
            scheme=Scheme.UNSEC,
            avg_latency_ns=117.5,
            normalized=1.0,
        ),
    ]


def test_records_flatten_enums():
    records = points_to_records(sample_points())
    assert records[0]["scheme"] == "SuperMem"
    assert records[0]["workload"] == "array"
    assert records[0]["normalized"] == 1.05


def test_export_roundtrip(tmp_path):
    path = tmp_path / "fig13.json"
    n = export_json(sample_points(), path, experiment="fig13")
    assert n == 2
    loaded = json.loads(path.read_text())
    assert loaded["experiment"] == "fig13"
    assert len(loaded["points"]) == 2
    assert loaded["points"][1]["scheme"] == "Unsec"


def test_export_is_valid_json(tmp_path):
    path = tmp_path / "t.json"
    export_json(sample_points(), path)
    json.loads(path.read_text())  # no raise


def test_table1_rows_export(tmp_path):
    rows = [
        Table1Row(system="supermem", stage="mutate", recoverable=True, recovered_value="old")
    ]
    path = tmp_path / "t1.json"
    export_json(rows, path, experiment="table1")
    loaded = json.loads(path.read_text())
    assert loaded["points"][0]["recoverable"] is True


def test_bytes_and_nested_values():
    records = points_to_records([{"raw": b"\x01\x02", "inner": [Scheme.SCA]}])
    assert records[0]["raw"] == "0102"
    assert records[0]["inner"] == ["SCA"]
