"""Fast test of the benchmark: every workload at a tiny size, with its checks."""

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import bench, layers, reference, workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_runner_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.UNITS


def test_references_agree_with_each_other():
    for T, M, K in ((4.0, 64, 200), (40.0, 200, 600)):
        a = reference.law_expm(1.0, 1.0, 1.0, T, M)
        b = reference.law_uniformised(1.0, 1.0, 1.0, T, M, K)
        # expm's error is relative to the matrix norm, so only masses well above
        # rounding level can be compared relatively.
        big = b > 1e-20
        assert np.max(np.abs(a[big] - b[big]) / b[big]) < 1e-7
        assert np.max(np.abs(a - b)) < 1e-14
    assert reference.tail_level(0.28, 25.0) == 7
    assert reference.tail_level(0.5, 160.0) == 80
    assert reference.tail_level(2.0, 160.0) == 320


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_runs_and_checks_at_tiny_size(workload):
    result = bench.run(workload, seed=7, seconds=0, trace=False, size_name="tiny", setup_children=False)
    record = result["record"]
    assert record["correct"], result["lines"]
    assert set(record["metrics"]) == set(bench.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in record["metrics"].values())
    n_ops = {"law-T4": 2, "rare-T160": 3, "oracle-T160": 8}[workload]
    rounds = record["attempted"] // n_ops
    assert record["attempted"] == rounds * n_ops and rounds >= bench.MIN_ROUNDS
    known = sum(op.known_fault is not None for op in workloads.WORKLOADS[workload][0](7, workloads.SIZES["tiny"], Path()))
    # Known faults are counted, and nothing else fails; a fix may bring their count to 0.
    assert record["failed"] in (0, known * rounds)


def test_traced_run_reports_every_per_layer_metric():
    result = bench.run("law-T4", seed=7, seconds=0, trace=True, size_name="tiny")
    record = result["record"]
    assert record["correct"], result["lines"]
    assert set(record["metrics"]) == set(layers.UNITS)
    assert all(np.isfinite(m["value"]) for m in record["metrics"].values())
    assert (bench.OUT / "trace-law-T4-seed7.json").exists()
