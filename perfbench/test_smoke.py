"""Smoke test of the benchmark at tiny sizes; checks names and gates, no timings.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import tempfile

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(run.SRC))  # as run.main does before running a workload


def units(section):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_present_with_units(workload):
    report, result = run.run_workload(workload, seed=3, seconds=0, trace_on=False, tiny=True,
                                      min_ops=1, setup_repeats=2)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and report["error_rate"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert len(report["setup_samples"]) == 2 and len(report["input_digest"]) == 64
    assert set(report["raw"]) == {"setup_s", "throughput_ops_s", "latency_p50_ms",
                                  "latency_p90_ms"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics_present_with_units(workload):
    report, result = run.run_workload(workload, seed=3, seconds=0, trace_on=True, tiny=True,
                                      min_ops=1)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("per_layer")
    assert set(report["moves"]) == set(units("per_layer"))


def test_same_seed_same_inputs():
    digests = {run.run_workload("orbits", seed=5, seconds=0, trace_on=False, tiny=True,
                                min_ops=1, setup_repeats=1)[0]["input_digest"]
               for _ in range(2)}
    assert len(digests) == 1


def test_wrong_expected_verdict_raises_error_rate():
    def plant_wrong_verdict(ops):
        op = next(op for op in ops if op.expect is True)
        op.expect = False

    report, result = run.run_workload("classify", seed=3, seconds=0, trace_on=False,
                                      tiny=True, min_ops=1, setup_repeats=1,
                                      edit_ops=plant_wrong_verdict)
    assert report["error_rate"] > 0 and result["failed"] >= 1 and not result["correct"]
    assert report["failures"][0]["input"].startswith("symplectic/")
    assert result["metrics"]["success_rate"]["value"] < 1


def test_fails_without_sources():
    """Holding only BENCHMARK.json and perfbench/, a run exits nonzero and prints nothing."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "classify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
