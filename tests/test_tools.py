import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pwclock._csv import _write_csv
from pwclock.cli import EXPERIMENTS

from calibration import (
    FIDELITY_LOSS_PREFACTOR,
    IDEAL_LIMIT_CROSSING_SCALE,
    LINEAR_REL_ERR_AT_RN_0_1,
    LINEAR_REL_ERR_PER_RN,
    WORST_ROW_FIDELITY_FLOOR,
)

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_csv_digests_repeat_at_small_grids():
    # The byte-check set at small grids, in two fresh processes: the same
    # CSVs (one per experiment of the bundle, 3 seeds, 4 sweep values, 1
    # large grid, 6 per-row experiments) with the same digests.
    command = [sys.executable, str(TOOLS / "csv_digests.py"),
               "--grid", "256", "--readings", "8", "--large-grid", "1024", "--tables-grid", "64"]
    outputs = [
        json.loads(subprocess.run(command, capture_output=True, text=True, check=True).stdout)
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == len(EXPERIMENTS) + 14
    assert sum(name.startswith("all/") for name in outputs[0]) == len(EXPERIMENTS)
    assert sum(name.startswith("tables-grid64/") for name in outputs[0]) == 6
    assert all(len(digest) == 64 for digest in outputs[0].values())


def test_csv_digests_keep_and_against(tmp_path):
    # --keep leaves the CSVs in place; --against lists, per CSV that differs
    # from a kept run, each moved column with its largest difference and its
    # count of moved cells, and each column only the kept run has. Here one
    # n_exact cell of a kept CSV is moved by 0.5, another kept CSV gains a
    # column, and a third has two columns swapped: its bytes differ, but no
    # column's name or cells do.
    kept = tmp_path / "kept"
    command = [sys.executable, str(TOOLS / "csv_digests.py"),
               "--grid", "256", "--readings", "8", "--large-grid", "1024", "--tables-grid", "64"]
    first = subprocess.run(command + ["--keep", str(kept)], capture_output=True, text=True,
                           check=True)
    digests = json.loads(first.stdout)
    assert sorted(str(csv.relative_to(kept)) for csv in kept.rglob("*.csv")) == sorted(digests)
    timemap = kept / "tables-grid64" / "timemap.csv"
    lines = timemap.read_text(encoding="utf-8").splitlines(keepends=True)
    column = lines[0].split(",").index("n_exact")
    cells = lines[5].split(",")
    cells[column] = repr(float(cells[column]) + 0.5)
    lines[5] = ",".join(cells)
    timemap.write_text("".join(lines), encoding="utf-8")
    profile = kept / "tables-grid64" / "clock-profile.csv"
    lines = profile.read_text(encoding="utf-8").splitlines()
    profile.write_text("".join(f"{line},{'extra' if i == 0 else i}\n" for i, line in enumerate(lines)),
                       encoding="utf-8")
    damping = kept / "all" / "damping-opt.csv"
    rows = [line.split(",") for line in damping.read_text(encoding="utf-8").splitlines()]
    damping.write_text("".join(f"{b},{a},{c}\n" for a, b, c in rows), encoding="utf-8")

    second = subprocess.run(command + ["--against", str(kept)], capture_output=True, text=True,
                            check=True)
    assert json.loads(second.stdout) == digests
    assert second.stderr.splitlines()[1:] == [  # after the SIMD line
        "all/damping-opt.csv: its bytes differ, but no column's name or cells do",
        "tables-grid64/clock-profile.csv: extra: dropped (64 cells)",
        "tables-grid64/timemap.csv: n_exact: largest |difference| 0.5 in 1 moved cells",
    ]


def test_csv_digests_do_not_depend_on_blas_threads_at_the_benchmark_grid():
    # Each reading's v is one real BLAS dot over its band, and one and two
    # BLAS threads give the same bytes. tests/test_cli.py holds oracle-check
    # at grid 16,384 to the same.
    command = [sys.executable, str(TOOLS / "csv_digests.py"),
               "--grid", "8192", "--readings", "256", "--large-grid", "8192", "--tables-grid", "512"]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        result = subprocess.run(command, capture_output=True, text=True, check=True, env=env)
        outputs.append(json.loads(result.stdout))
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == len(EXPERIMENTS) + 13  # the large grid is the seed-5 case


def test_csv_digests_name_their_simd_level_on_stderr():
    # The first stderr line names numpy's version, its SIMD baseline and the dispatched
    # targets enabled, which NPY_DISABLE_CPU_FEATURES narrows; stdout keeps its keys.
    from numpy._core import _multiarray_umath as umath

    enabled = [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]
    inherited = os.environ.get("NPY_DISABLE_CPU_FEATURES", "")
    command = [sys.executable, str(TOOLS / "csv_digests.py"),
               "--grid", "256", "--readings", "8", "--large-grid", "256", "--tables-grid", "64"]
    keys = []
    for disabled, left in ((inherited, enabled), (" ".join([inherited, *enabled[1:]]), enabled[:1])):
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled.strip())
        result = subprocess.run(command, capture_output=True, text=True, check=True, env=env)
        assert result.stderr.splitlines()[0] == (
            f"numpy {np.__version__}; SIMD baseline: {' '.join(umath.__cpu_baseline__) or 'none'}; "
            f"dispatched: {' '.join(left) or 'none'}")
        keys.append(sorted(json.loads(result.stdout)))
    assert keys[0] == keys[1] and len(keys[0]) == len(EXPERIMENTS) + 13


def test_calibrate_reproduces_the_frozen_constants():
    # tools/calibrate.py measures what tests/calibration.py freezes: each frozen bound lies
    # on its stated side of the value the tool prints now. It runs as README runs it, with
    # no PYTHONPATH: the tool finds src/ itself.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run([sys.executable, str(TOOLS / "calibrate.py")], capture_output=True,
                            text=True, check=True, env=env)
    measured = {}
    for line in result.stdout.splitlines():
        label, _, value = line.rpartition(":")
        if value.strip():
            measured[" ".join(label.split())] = float(value.split()[-1])
    assert measured["max rel_err / rn"] <= LINEAR_REL_ERR_PER_RN
    assert measured["rel_err at rn = 0.1"] <= LINEAR_REL_ERR_AT_RN_0_1
    assert measured[f"m*omega = {IDEAL_LIMIT_CROSSING_SCALE:.0f}"] >= 0.99  # its mass fraction
    assert measured["worst-row fidelity (default comparison)"] >= WORST_ROW_FIDELITY_FLOOR
    assert measured["fidelity-loss prefactor (fixed clock)"] <= FIDELITY_LOSS_PREFACTOR


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("large_grid", [1024, 256])
def test_csv_digests_runs_write_no_csv_twice(tmp_path, large_grid):
    # Each run writes <out>/<experiment>.csv (``all`` every experiment), so
    # no two runs of one experiment may share an --out directory. When the
    # large grid equals the grid, its run is the seed-5 case and is skipped.
    csv_digests = load_tool("csv_digests")
    runs = csv_digests.byte_check_runs(tmp_path, tmp_path / "c.json", 256, large_grid, 64)
    targets = [(run[0], run[run.index("--out") + 1]) for run in runs]
    assert len(set(targets)) == len(targets)
    assert len(runs) == (12 if large_grid != 256 else 11)


def test_repr_check_finds_no_mismatch_in_its_mix():
    command = [sys.executable, str(TOOLS / "repr_check.py"), "--count", "10000", "--seed", "1"]
    result = subprocess.run(command, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == "0 mismatches in 10000 values\n"


def test_repr_check_counts_each_wrong_cell(tmp_path):
    repr_check = load_tool("repr_check")
    values = repr_check.mixed_values(1000, np.random.default_rng(2))
    wrong = np.flatnonzero(np.isfinite(values) & (np.abs(values) > 1e-10))[:2]

    def doubling_two_cells(path, header, columns):
        column = columns[0].copy()
        column[wrong] *= 2.0
        _write_csv(path, header, [column])

    assert repr_check.mismatches(_write_csv, values, tmp_path / "v.csv") == 0
    assert repr_check.mismatches(doubling_two_cells, values, tmp_path / "v.csv") == 2
