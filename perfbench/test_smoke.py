"""Smoke test of the benchmark itself.

Runs every workload at toy size (``--toy``), untraced and traced, and
checks that the result line names exactly the metrics BENCHMARK.json
declares, with their units, that the outputs were judged correct and
that the run's process-hygiene checks passed (``run.py`` exits 1 when
they fail).  Also checks that the benchmark refuses to run without the
program's source tree.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_toy_run_reports_every_metric(workload, trace, section):
    done = run_benchmark(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1
    units = {name: value["unit"] for name, value in result["metrics"].items()}
    assert units == {entry["name"]: entry["unit"] for entry in SPEC[section]}
    if trace == 0:
        assert all(value["value"] > 0 for value in result["metrics"].values())
    else:
        assert result["metrics"]["trace.overhead"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, "table3", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
