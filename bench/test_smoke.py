"""Smoke test of the benchmark harness at minimal size (about 30 s).

    python3 -m pytest -q bench/test_smoke.py

Runs every workload for one operation, validates each result line against
BENCHMARK.json, checks that two traced runs with one seed give identical
counts, and that the command refuses to run without the package.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

# Per-layer values that are counts, or pure functions of counts and of the
# seeded inputs: they must repeat exactly for a seed.
EXACT_UNITS = ("count", "calls/flow", "1")
EXACT_NAMES = ("synthesis.dlqr_success_ratio", "synthesis.stable_ratio", "fail_ratio")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def result_of(proc, declared):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    units = {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name], name
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    return result


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_runs_and_reports_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0", "--max-ops", "1")
    result = result_of(proc, SPEC["end_to_end"])
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "machine {" in proc.stdout


def test_traced_counts_repeat_for_a_seed():
    args = ("--workload", "sweep", "--seed", "3", "--seconds", "0", "--trace", "1", "--max-ops", "1")
    exact = []
    for _ in range(2):
        result = result_of(bench(*args), SPEC["per_layer"])
        exact.append({
            name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in EXACT_UNITS or name in EXACT_NAMES
        })
    assert exact[0]["integrator.flows"] > 0
    assert exact[0] == exact[1]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
