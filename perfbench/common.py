"""Shared pieces of the pwclock benchmark: paths, thread policy, statistics.

Importing this module pins the BLAS thread count before numpy can load, so
every entry point of the benchmark imports it first.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# BLAS thread policy: one thread for every workload. With the default (one
# thread per core) the K=2048 history build on a 2-core machine is bimodal;
# the cli sweep pool would also put more threads than cores on the CPU.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ENV_VARS = THREAD_VARS + ("PWCLOCK_THREADS", "PYTHONPATH")

INHERITED_ENV = {var: os.environ.get(var) for var in ENV_VARS}
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)


def require_source() -> None:
    """Exit with status 2 unless the pwclock sources sit beside the benchmark."""
    if not (SRC / "pwclock" / "__init__.py").is_file():
        print(f"pwclock sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for pwclock subprocesses: sources on the path, pinned BLAS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """Highest order statistic with at least ten samples above it.

    Returns (value, percentile rank). With 20 samples or fewer that order
    statistic lies below the median, so no tail above the median can
    be resolved, and the median is returned with rank 50.
    """
    ordered = sorted(values)
    k = len(ordered) - 11
    if k + 1 <= len(ordered) / 2:
        return median(ordered), 50.0
    return float(ordered[k]), 100.0 * (k + 1) / len(ordered)


def environment() -> dict:
    """Fingerprint of the interpreter, numpy, BLAS and the thread settings."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "env_inherited": INHERITED_ENV,
        "env_used": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
