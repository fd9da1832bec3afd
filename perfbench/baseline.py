"""Re-record the hand-timed baseline table with the benchmark's thread policy.

Usage: python3 perfbench/baseline.py

Times the whole default bundle and oracle-check as fresh processes, the
import alone, and single layers in process: the history build at K=2048 and
K=8192, 10k-row linearization and evolution reports, and one conditional
query. Each entry is the median of REPEATS repeats (2 for the K=8192 build,
200 calls for the query). Writes perfbench/BENCH_baseline.json and prints a
markdown table.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import time

import common
from common import HERE, OUT, ROOT, child_env, median

REPEATS = 5


def process_seconds(args: list[str], repeats: int) -> float:
    times = []
    for _ in range(repeats + 1):  # the first run fills the bytecode cache
        start = time.perf_counter()
        subprocess.run([sys.executable] + args, cwd=ROOT, env=child_env(), check=True,
                       capture_output=True, timeout=300)
        times.append(time.perf_counter() - start)
    return median(times[1:])


def call_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times)


def measure() -> list[dict]:
    import numpy as np
    from pwclock import (build_history_state, cli, compare_evolutions,
                         conditional_system_probability, linearization_report,
                         position_expectation)

    oracle = cli.resolve_config("oracle-check")
    timemap = cli.resolve_config("timemap")
    evolve = cli.resolve_config("evolve-compare")
    history = build_history_state(oracle.system, oracle.clock, 2048)
    probe = np.full(2, 2 ** -0.5, dtype=np.complex128)
    projector = np.outer(probe, probe.conj())
    x = position_expectation(0.5 * oracle.clock.n_reset, oracle.clock)

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as out:
        rows = [
            ("python -m pwclock.cli all", "process",
             process_seconds(["-m", "pwclock.cli", "all", "--out", out], REPEATS)),
            ("import pwclock.cli", "process",
             process_seconds(["-c", "import pwclock.cli"], REPEATS)),
            ("python -m pwclock.cli oracle-check", "process",
             process_seconds(["-m", "pwclock.cli", "oracle-check", "--out", out], REPEATS)),
        ]
    rows += [
        ("build_history_state, K=2048", "call", call_seconds(
            lambda: build_history_state(oracle.system, oracle.clock, 2048), REPEATS)),
        ("build_history_state, K=8192", "call", call_seconds(
            lambda: build_history_state(oracle.system, oracle.clock, 8192), 2)),
        ("linearization_report, 10k rows", "call", call_seconds(
            lambda: linearization_report(timemap.clock, 10_000), REPEATS)),
        ("compare_evolutions, 10k rows", "call", call_seconds(
            lambda: compare_evolutions(evolve.system, evolve.clock, 10_000), REPEATS)),
        ("one conditional_system_probability, K=2048", "call", call_seconds(
            lambda: conditional_system_probability(history, x, projector), 200)),
    ]
    return [{"measurement": name, "kind": kind, "seconds": seconds}
            for name, kind, seconds in rows]


def main() -> int:
    common.require_source()
    rows = measure()
    common.write_json(HERE / "BENCH_baseline.json", {
        "repeats": REPEATS,
        "environment": common.environment(),
        "rows": rows,
    })
    print("| Measurement | Time |\n| --- | --- |")
    for row in rows:
        seconds = row["seconds"]
        shown = f"{seconds * 1e6:.0f} µs" if seconds < 0.01 else f"{seconds:.3f} s"
        print(f"| `{row['measurement']}` | {shown} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
