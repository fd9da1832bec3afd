#!/usr/bin/env python3
"""SHA-256 digests of the CSVs that pin pwclock's output bytes.

Runs the byte-check set through ``pwclock.cli.main`` in a temporary
directory (or under ``--keep DIR``) and prints one JSON object that maps each CSV to its digest:

- the default ``all`` bundle;
- ``oracle-check`` at grid 8192 with 256 readings, for seeds 5, 7 and 211;
- the ``oracle-check`` sweep ``r=0.1,0.2,0.3,0.6`` at that grid and readings;
- ``oracle-check`` at grid 65,536 with 256 readings, seed 5 (when
  ``--large-grid`` equals ``--grid`` this is the seed-5 case, run once);
- the six per-row experiments of the benchmark's ``tables`` workload
  (``clock-profile``, ``damping-opt``, ``timemap``, ``evolve-compare``,
  ``posterior`` at its default x, ``ideal-limit``) at grid 8192.

Run it once per checkout and compare the two outputs, e.g.

    python3 tools/csv_digests.py > change.json
    python3 tools/csv_digests.py --src ../parent/src > parent.json
    diff parent.json change.json

``--src`` is the package source to run (default: the ``src/`` beside this
script); ``--grid``, ``--readings``, ``--large-grid`` and ``--tables-grid``
shrink the set for a quick check. BLAS runs on one thread unless the
environment already sets its thread count; the digests are the same on one,
two and four threads.

``--keep DIR`` writes the CSVs under DIR, best a new one, and keeps them.
``--against DIR`` compares this run's CSVs with those another run kept in
DIR and prints to stderr, for each CSV that changed, each column that only
one run has and each moved column's largest absolute difference and its
count of moved cells:

    python3 tools/csv_digests.py --src ../parent/src --keep parent-csvs > parent.json
    python3 tools/csv_digests.py --against parent-csvs > change.json

The bytes hold for one numpy build and SIMD level, so the first stderr
line names both: numpy's version, its compiled SIMD baseline and the
dispatched targets this process enabled, which ``NPY_DISABLE_CPU_FEATURES``
can narrow. stdout holds the digests only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEEDS = (5, 7, 211)
SWEEP = "r=0.1,0.2,0.3,0.6"
LARGE_SEED = 5
TABLES = ("clock-profile", "damping-opt", "timemap", "evolve-compare", "posterior", "ideal-limit")


def byte_check_runs(
    root: Path, config: Path, grid: int, large_grid: int, tables_grid: int
) -> list[list[str]]:
    """The pwclock argument lists of the byte-check set, writing under ``root``.

    ``config`` sets the readings.
    """
    oracle = ["oracle-check", "--config", str(config)]
    runs = [["all", "--out", str(root / "all")]]
    for seed in SEEDS:
        out = root / f"oracle-check-grid{grid}-seed{seed}"
        runs.append(oracle + ["--grid", str(grid), "--seed", str(seed), "--out", str(out)])
    runs.append(oracle + ["--grid", str(grid), "--sweep", SWEEP,
                          "--out", str(root / f"oracle-check-grid{grid}-sweep")])
    if large_grid != grid:  # else it is the seed-5 run above
        out = root / f"oracle-check-grid{large_grid}-seed{LARGE_SEED}"
        runs.append(oracle + ["--grid", str(large_grid), "--seed", str(LARGE_SEED),
                              "--out", str(out)])
    out = root / f"tables-grid{tables_grid}"
    runs += [[name, "--grid", str(tables_grid), "--out", str(out)] for name in TABLES]
    return runs


def read_columns(path: Path) -> dict[str, list[str]]:
    """A CSV's cells as text, column by column."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    return {name: [row[j] for row in rows] for j, name in enumerate(lines[0].split(","))}


def column_moves(old: Path, new: Path) -> dict[str, str]:
    """What changed in each column that differs between ``old`` and ``new``: ``new``'s
    columns first, in order, then those that only ``old`` has.

    A column that only one file has is "added" or "dropped". A moved column
    gives its largest absolute difference, NaN for a text column or one that
    changed length (all of whose cells count as moved), and its count of
    moved cells.
    """
    before, after = read_columns(old), read_columns(new)
    moves = {}
    for name, cells in after.items():
        if name not in before:
            moves[name] = f"added ({len(cells)} cells)"
            continue
        if len(before[name]) != len(cells):
            largest, count = math.nan, len(cells)
        else:
            moved = [(a, b) for a, b in zip(before[name], cells) if a != b]
            if not moved:
                continue
            try:
                largest = max(abs(float(b) - float(a)) for a, b in moved)
            except ValueError:
                largest = math.nan
            count = len(moved)
        moves[name] = f"largest |difference| {largest:.3g} in {count} moved cells"
    moves.update((name, f"dropped ({len(cells)} cells)") for name, cells in before.items()
                 if name not in after)
    return moves


def report_moves(old_root: Path, new_root: Path) -> list[str]:
    """One line per changed column of each CSV that differs between two kept runs, or one
    line for the CSV where its bytes differ but no column's name or cells do."""
    old = {str(csv.relative_to(old_root)) for csv in old_root.rglob("*.csv")}
    new = {str(csv.relative_to(new_root)) for csv in new_root.rglob("*.csv")}
    lines = [f"{name}: only in {old_root}" for name in sorted(old - new)]
    lines += [f"{name}: only in this run" for name in sorted(new - old)]
    for name in sorted(old & new):
        if (old_root / name).read_bytes() != (new_root / name).read_bytes():
            moves = column_moves(old_root / name, new_root / name)
            lines += [f"{name}: {column}: {move}" for column, move in moves.items()] or [
                f"{name}: its bytes differ, but no column's name or cells do"]
    return lines


def simd_fingerprint() -> str:
    """numpy's version, SIMD baseline and the dispatched SIMD targets enabled in this process."""
    import numpy
    from numpy._core import _multiarray_umath as umath

    enabled = [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]
    return (f"numpy {numpy.__version__}; SIMD baseline: {' '.join(umath.__cpu_baseline__) or 'none'}; "
            f"dispatched: {' '.join(enabled) or 'none'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding the pwclock package to run")
    parser.add_argument("--grid", type=int, default=8192, help="oracle-check grid size")
    parser.add_argument("--readings", type=int, default=256, help="oracle-check readings")
    parser.add_argument("--large-grid", type=int, default=65536, help="large oracle-check grid")
    parser.add_argument("--tables-grid", type=int, default=8192, help="per-row experiments' grid")
    parser.add_argument("--keep", metavar="DIR", help="write the CSVs under DIR and keep them")
    parser.add_argument("--against", metavar="DIR",
                        help="print to stderr the changed columns of each CSV that differs from DIR's")
    args = parser.parse_args(argv)

    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(Path(args.src).resolve()))
    from pwclock.cli import main as pwclock

    print(simd_fingerprint(), file=sys.stderr)

    with nullcontext(args.keep) if args.keep else tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        root.mkdir(parents=True, exist_ok=True)
        config = root / "readings.json"
        config.write_text(json.dumps({"options": {"num_readings": args.readings}}), encoding="utf-8")
        runs = byte_check_runs(root, config, args.grid, args.large_grid, args.tables_grid)
        for run in runs:
            code = pwclock(run)
            if code != 0:
                print(f"pwclock {' '.join(run)} exited {code}", file=sys.stderr)
                return code
        digests = {
            str(csv.relative_to(root)): hashlib.sha256(csv.read_bytes()).hexdigest()
            for csv in sorted(root.rglob("*.csv"))
        }
        if args.against:
            lines = report_moves(Path(args.against), root) or ["no CSV changed"]
            print("\n".join(lines), file=sys.stderr)
    print(json.dumps(digests, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
