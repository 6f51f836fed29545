"""Smoke test of the benchmark harness at reduced orders.

Runs every workload traced, and one workload untraced, at orders small
enough to finish in about two seconds.  Each result line
must carry every metric BENCHMARK.json declares, with its unit, and no
failures.
"""

import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMALL_ORDERS = {"deep-table": 12, "per-order-api": 12, "verify-sweep": 3, "oracle-census": 3}


def test_declared_workloads_are_the_harness_workloads():
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize(
    "name, trace, section",
    [(name, True, "per_layer") for name in sorted(SMALL_ORDERS)]
    + [("per-order-api", False, "end_to_end")],
)
def test_every_metric_is_reported_with_its_unit(name, trace, section):
    workload = replace(bench.WORKLOADS[name], order=SMALL_ORDERS[name])
    metrics, detail = bench.measure(workload, seed=7, seconds=0, trace=trace, min_samples=1)
    result = bench.result_line(metrics, detail, trace)
    assert result["correct"] and result["failed"] == 0, detail["problems"]
    assert result["attempted"] >= 1
    reported = {metric: value["unit"] for metric, value in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in DECLARED[section]}


def test_output_without_a_matching_digest_counts_as_failed(tmp_path):
    workload = replace(bench.WORKLOADS["deep-table"], order=12)
    run = bench.Run(workload, 7, tmp_path, bench.child_env(), expected={})
    run.sample()
    assert (run.attempted, run.failed) == (1, 1)
    assert run.problems == ["no pinned digest for deep-table:12"]
