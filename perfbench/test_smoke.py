"""Smoke test of the benchmark itself; it sets no timing bounds.

Runs every workload once at the tiny size, plus traced runs, and asserts exit
codes, output checks and the presence of every named metric.  Run it from the
root of a checkout with ``python3 -m pytest perfbench/test_smoke.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170, check=False,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (
        proc.stderr
    )
    return result


def _assert_metrics(result: dict, specs: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_passes_its_checks_and_reports_end_to_end_metrics(workload):
    result = _result(workload, 0)
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_runs_report_every_layer_metric_with_repeatable_counts():
    first, second = _result("survival-aml", 1), _result("survival-aml", 1)
    _assert_metrics(first, SPEC["per_layer"])
    counts = {n for n, m in first["metrics"].items() if m["unit"] == "count"}
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }
    for name in ("mcmc.sweeps", "distributions.kernel_calls.Exponential",
                 "distributions.truncated_draws", "selection.rowpairs"):
        assert first["metrics"][name]["value"] > 0, name


def test_every_layer_metric_is_mapped():
    assert set(LAYERS["layers"]) == {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for entry in LAYERS["layers"].values():
        assert set(entry["moves"]) <= e2e and set(entry["workloads"]) <= workloads


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("survival-aml", 0, tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
