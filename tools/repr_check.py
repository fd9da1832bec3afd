#!/usr/bin/env python3
"""Check the CSV writer's float cells against ``repr`` on a seeded mix of values.

Draws ``--count`` float64 values from ``--seed`` and writes them, a million
at a time, as one-column CSVs through ``pwclock._csv._write_csv``, which
formats them block by block. Each file is compared with the ``repr`` join of
its values. Prints the number of cells that differ and exits 1 if any does.

The mix, in shares of the count:

- 40% random bit patterns: NaN, infinities, zeros and subnormals included;
- 30% magnitudes 10**u with u uniform in [-30, 30], of either sign;
- 10% 17-digit decimals d.dddddddddddddddd * 10**k, k in [-30, 30];
- 10% short decimals of 1 to 6 digits;
- 10% grid points, as ``np.linspace`` puts them.

Run it as

    python3 tools/repr_check.py --count 10000000 --seed 1
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

CHUNK = 10**6


def mixed_values(count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` float64 values of the mix, shuffled."""
    shares = np.array([4, 3, 1, 1, 1]) * count // 10
    shares[0] += count - shares.sum()
    bits, scaled, long, short, grid = shares
    parts = [rng.integers(0, 2**64, bits, dtype=np.uint64).view(np.float64)]
    parts.append(rng.choice([-1.0, 1.0], scaled) * 10.0 ** rng.uniform(-30.0, 30.0, scaled))
    mantissas = rng.integers(10**16, 10**17, long)
    exponents = rng.integers(-46, 15, long)  # d.ddd... * 10**k with k in [-30, 30]
    parts.append(np.array([f"{m}e{e}" for m, e in zip(mantissas.tolist(), exponents.tolist())],
                          dtype=float))
    parts.append(rng.integers(1, 10**6, short) / 10.0 ** rng.integers(0, 7, short))
    points = [np.linspace(0.0, rng.uniform(0.1, 100.0), 8193) for _ in range(grid // 8193 + 1)]
    parts.append(np.concatenate(points)[:grid])
    values = np.concatenate(parts)
    rng.shuffle(values)
    return values


def mismatches(write_csv, values: np.ndarray, path: Path) -> int:
    """Cells of the written one-column CSV of ``values`` that differ from repr."""
    write_csv(path, ["v"], [values])
    expected = ["v"] + [repr(v) for v in values.tolist()]
    written = path.read_bytes()
    if written == ("\n".join(expected) + "\n").encode():
        return 0
    lines = written.decode().split("\n")[:-1]
    if len(lines) != len(expected):
        return len(values)
    return sum(a != b for a, b in zip(lines, expected))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10**6, help="values to check")
    parser.add_argument("--seed", type=int, default=0, help="seed of the values")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from pwclock._csv import _write_csv

    values = mixed_values(args.count, np.random.default_rng(args.seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "values.csv"
        bad = sum(mismatches(_write_csv, values[start:start + CHUNK], path)
                  for start in range(0, len(values), CHUNK))
    print(f"{bad} mismatches in {len(values)} values")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
