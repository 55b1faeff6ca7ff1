"""The benchmark's own checks: the traced run is transparent and complete.

Runs the seconds-scale ``tiny`` version of every workload, so it is cheap
enough for the tier-1 suite.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import tracing
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, result_digest

HERE = os.path.dirname(os.path.abspath(__file__))


def _run(workload, scratch, tracer=None):
    os.makedirs(scratch)
    if tracer is None:
        return [result_digest(r) for r in workload.tiny(DEFAULT_SEED, "auto", scratch)]
    with tracer.installed():
        return [result_digest(r) for r in workload.tiny(DEFAULT_SEED, "auto", scratch)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_is_transparent(name, tmp_path):
    workload = WORKLOADS[name]
    plain = _run(workload, tmp_path / "plain")
    first, second = tracing.Tracer("a"), tracing.Tracer("b")
    assert _run(workload, tmp_path / "first", first) == plain
    assert _run(workload, tmp_path / "second", second) == plain
    assert first.restored and second.restored
    for key in tracing.EXACT_COUNTS:
        assert first.counts[key] == second.counts[key], key


def test_every_wrapper_is_restored():
    tracer = tracing.Tracer("probe")
    with tracer.installed():
        pass
    assert tracer._patches, "no layer boundary was wrapped"
    for owner, key, original in tracer._patches:
        current = owner[key] if isinstance(owner, dict) else vars(owner)[key]
        assert current is original, key


def test_wrappers_restored_when_the_run_raises():
    tracer = tracing.Tracer("raises")
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    assert tracer.restored


@pytest.mark.parametrize(
    "name, exercised",
    [
        ("suburb_sparse", ("batch.calls", "mobility.agent_steps", "neighbors.any_within_calls")),
        ("large_n", ("batch.calls", "protocols.rounds", "zones.points")),
        ("protocol_sweep", ("sweep.trials_executed", "sweep.batches", "checkpoint.bytes",
                            "neighbors.count_within_calls", "neighbors.contacts_within_calls")),
        ("observer_trials", ("engine.trials", "mobility.step_calls", "neighbors.any_within_calls")),
    ],
)
def test_layers_are_measured_where_exercised(name, exercised, tmp_path):
    tracer = tracing.Tracer(name)
    _run(WORKLOADS[name], tmp_path / "run", tracer)
    metrics = tracing.layer_metrics(tracer)
    reported = {metric for metric, _unit, _better in tracing.LAYER_METRICS}
    assert set(metrics) == reported - {"trace.overhead_frac", "kernels.compile_events"}
    for metric in exercised:
        assert metrics[metric] > 0, metric
    untouched = "engine.trials" if name != "observer_trials" else "batch.calls"
    assert metrics[untouched] == 0


def test_self_time_subtracts_children():
    tracer = tracing.Tracer("unit")
    tracer.spans.extend([["outer", 0.0, 10.0, None], ["inner", 2.0, 5.0, 0], ["inner", 6.0, 7.0, 0]])
    self_s = tracer.self_times()
    assert self_s["outer"] == pytest.approx(6.0)
    assert self_s["inner"] == pytest.approx(4.0)


def test_benchmark_json_names_the_workloads_and_layers():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(entry) for entry in tracing.LAYER_METRICS
    ]
    with open(os.path.join(HERE, "reference.json")) as handle:
        assert set(json.load(handle)) == set(WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large_n", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
