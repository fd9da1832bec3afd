import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from pwclock._csv import _write_csv

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_csv_digests_repeat_at_small_grids():
    # The byte-check set at small grids, in two fresh processes: the same
    # 23 CSVs (7 of the bundle, 3 seeds, 4 sweep values, 1 large grid, 6
    # per-row experiments, 2 at phase 1.3) with the same digests.
    command = [sys.executable, str(TOOLS / "csv_digests.py"),
               "--grid", "256", "--readings", "8", "--large-grid", "1024", "--tables-grid", "64"]
    outputs = [
        json.loads(subprocess.run(command, capture_output=True, text=True, check=True).stdout)
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == 23
    assert sum(name.startswith("all/") for name in outputs[0]) == 7
    assert sum(name.startswith("tables-grid64/") for name in outputs[0]) == 6
    # The global phase cancels exactly: its files equal their phase-0 twins byte for byte.
    digests = outputs[0]
    assert digests["phase1.3/oracle-check.csv"] == digests["oracle-check-grid256-seed5/oracle-check.csv"]
    assert digests["phase1.3/posterior.csv"] == digests["tables-grid64/posterior.csv"]
    assert all(len(digest) == 64 for digest in outputs[0].values())


def test_csv_digests_keep_and_against(tmp_path):
    # --keep leaves the CSVs in place; --against lists, per CSV that differs
    # from a kept run, each moved column with its largest difference and its
    # count of moved cells. Here one n_exact cell of a kept CSV is moved by 0.5.
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

    second = subprocess.run(command + ["--against", str(kept)], capture_output=True, text=True,
                            check=True)
    assert json.loads(second.stdout) == digests
    assert second.stderr.splitlines() == [
        "tables-grid64/timemap.csv: n_exact: largest |difference| 0.5 in 1 moved cells"
    ]


def test_csv_digests_do_not_depend_on_blas_threads_at_the_benchmark_grid():
    # Each reading's v is one BLAS contraction over its band, so up to grid
    # 8192 one and two BLAS threads give the same bytes. (From grid 16,384 a
    # threaded BLAS sums in a different order and they differ.)
    command = [sys.executable, str(TOOLS / "csv_digests.py"),
               "--grid", "8192", "--readings", "256", "--large-grid", "8192", "--tables-grid", "512"]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        result = subprocess.run(command, capture_output=True, text=True, check=True, env=env)
        outputs.append(json.loads(result.stdout))
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == 22  # the large grid is the seed-5 case: one CSV fewer


def test_repr_check_finds_no_mismatch_in_its_mix():
    command = [sys.executable, str(TOOLS / "repr_check.py"), "--count", "10000", "--seed", "1"]
    result = subprocess.run(command, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == "0 mismatches in 10000 values\n"


def test_repr_check_counts_each_wrong_cell(tmp_path):
    spec = importlib.util.spec_from_file_location("repr_check", TOOLS / "repr_check.py")
    repr_check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(repr_check)
    values = repr_check.mixed_values(1000, np.random.default_rng(2))
    wrong = np.flatnonzero(np.isfinite(values) & (np.abs(values) > 1e-10))[:2]

    def doubling_two_cells(path, header, columns):
        column = columns[0].copy()
        column[wrong] *= 2.0
        _write_csv(path, header, [column])

    assert repr_check.mismatches(_write_csv, values, tmp_path / "v.csv") == 0
    assert repr_check.mismatches(doubling_two_cells, values, tmp_path / "v.csv") == 2
