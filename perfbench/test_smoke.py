"""Smoke test of the benchmark at tiny grids.

Run with: python3 -m pytest perfbench/test_smoke.py

Every workload runs once untraced and once traced; each must print every
metric BENCHMARK.json names, with its unit, and pass its output checks.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def _layer_values(workload: str) -> dict[str, float]:
    proc = _run(ROOT, workload, 1)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metric["value"] for name, metric in metrics.items()}


def test_counts_at_tiny_grids():
    oracle = _layer_values("oracle")
    assert oracle["conditional.overlap_points"] == 2048**2
    assert oracle["conditional.conditional_system_probability.calls"] == 2 * 8
    assert oracle["cli.rows_written"] == 8
    tables = _layer_values("tables")
    assert tables["conditional.overlap_points"] == 0
    # Two eigh calls per evolve-compare row, except the n = 0 row.
    assert tables["evolution.eigh_calls"] == 2 * 64 - 2
    assert tables["cli.rows_written"] == 5 * 64 + 4


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "oracle", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
