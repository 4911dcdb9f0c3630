"""Tests of the benchmark harness: tracing, metric rules and compare.py.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

import copy
import json
import re

import pytest

import compare
import grids
import layers
import summary
import worker
from repro.core.schemes import Scheme

BENCHMARK = json.loads((grids.CHECKOUT / "BENCHMARK.json").read_text())


def _probe_spec(name: str):
    """One point of a workload that reaches every layer its kernel can."""
    specs = grids.build(name, seed=1)
    return next(spec for spec in specs if spec.scheme is Scheme.SUPERMEM_BMT)


def _digests(results):
    assert all(result is not None for result in results)
    return [summary.result_digest(result) for result in results]


@pytest.mark.parametrize("name", sorted(grids.WORKLOADS))
def test_one_point_traced_equals_untraced_and_reaches_its_layers(name):
    spec = _probe_spec(name)
    _, untraced = worker._run_rep([spec])
    kernel = grids.kernel_of(spec)
    tracer = layers.LayerTracer(layers.LAYERS, record_kernels=[kernel])
    tracer.calibrate(n=2000)
    with tracer:
        _, traced = worker._run_rep([spec])
    assert _digests(traced) == _digests(untraced)
    assert tracer.missing == []
    silent = [
        layer
        for layer in layers.expected_layers([kernel])
        if tracer.calls[layer] == 0
    ]
    assert silent == []
    # The first point of the kernel keeps every span below the runner.
    events = tracer.chrome_trace()["traceEvents"]
    below_runner = set(layers.KERNEL_LAYERS[kernel]) - {"experiments.runner"}
    assert {event["cat"] for event in events} == below_runner


def test_every_layer_is_expected_somewhere():
    reached = set()
    for names in layers.KERNEL_LAYERS.values():
        reached.update(names)
    assert reached == set(layers.LAYER_NAMES)


def test_tracer_rebinds_imported_names_and_restores_them():
    import repro.sim.simulator as simulator
    import repro.sim.trace_cache as trace_cache

    original = trace_cache.trace_arrays
    assert simulator.trace_arrays is original
    with layers.LayerTracer(layers.LAYERS):
        assert trace_cache.trace_arrays is not original
        assert simulator.trace_arrays is trace_cache.trace_arrays
    assert trace_cache.trace_arrays is original
    assert simulator.trace_arrays is original


def test_missing_targets_are_reported_not_fatal():
    table = (
        (
            "sim.simulator",
            (
                layers.Target("repro.no_such_module", None, "f"),
                layers.Target("repro.sim.simulator", None, "no_such_function"),
                layers.Target("repro.sim.simulator", "Simulator", "no_such_method"),
            ),
        ),
    )
    with layers.LayerTracer(table) as tracer:
        pass
    assert tracer.missing == [
        "repro.no_such_module.f",
        "repro.sim.simulator.no_such_function",
        "repro.sim.simulator.Simulator.no_such_method",
    ]


def test_self_time_excludes_children_and_wrapper_cost():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = layers.LayerTracer(
        (("outer", ()), ("inner", ())), clock=lambda: next(ticks)
    )
    tracer._costs[:] = [0.25, 0.5]
    inner = tracer._wrap(lambda: None, "inner", "inner")
    outer = tracer._wrap(lambda: inner(), "outer", "outer")
    outer()
    assert tracer.self_s["inner"] == pytest.approx(2.0 - 0.25)
    assert tracer.self_s["outer"] == pytest.approx(10.0 - 2.0 - 0.5 - 0.25)
    assert tracer.calls == {"outer": 1, "inner": 1}


NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def test_metric_names_are_well_formed():
    names = [name for name, _, _ in summary.END_TO_END + summary.PER_LAYER_ALL]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert names and all(NAME.match(name) for name in names)
    assert len(set(summary.PER_LAYER_ALL)) == len(summary.PER_LAYER_ALL)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(grids.WORKLOADS)
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]]
    assert declared == list(summary.END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == list(summary.PER_LAYER)


def test_tail_keeps_ten_samples_beyond_the_percentile():
    needed = summary.samples_needed(95)
    assert needed == 200
    assert summary.percentile(range(needed), 95) == 189
    assert summary.tail_mean(range(needed), 95) == sum(range(190, 200)) / 10
    for short in (summary.percentile, summary.tail_mean):
        with pytest.raises(ValueError):
            short(range(needed - 1), 95)
    for n in range(needed, 3 * needed):
        value = summary.percentile(range(n), 95)
        assert n - 1 - value >= summary.MIN_BEYOND


def _results(**metrics):
    workload = {
        "correct": True,
        "attempted": 210,
        "failed": 0,
        "metrics": {
            name: {"value": value, "unit": "x"} for name, value in metrics.items()
        },
    }
    return {"workloads": {"fig13": workload}}


BASE = _results(wall_s=4.0, points_per_s=26.0, setup_s=0.2, **{"model.txns": 3150})


@pytest.mark.parametrize(
    "doctor, code",
    [
        (lambda r: None, 0),
        (lambda r: r["wall_s"].update(value=3.0), 0),
        (lambda r: r["points_per_s"].update(value=30.0), 0),
        (lambda r: r["wall_s"].update(value=6.0), 1),
        (lambda r: r["points_per_s"].update(value=13.0), 1),
        (lambda r: r["model.txns"].update(value=3151), 1),
        (lambda r: r.pop("wall_s"), 1),
    ],
)
def test_compare_flags_doctored_inputs(tmp_path, doctor, code):
    candidate = copy.deepcopy(BASE)
    doctor(candidate["workloads"]["fig13"]["metrics"])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(BASE))
    b.write_text(json.dumps(candidate))
    assert compare.main([str(a), str(b)]) == code


def test_compare_flags_failed_points_and_bad_files(tmp_path):
    candidate = copy.deepcopy(BASE)
    candidate["workloads"]["fig13"]["failed"] = 1
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(BASE))
    b.write_text(json.dumps(candidate))
    assert compare.main([str(a), str(b)]) == 1
    b.write_text("{not json")
    assert compare.main([str(a), str(b)]) == 2
