"""Fixed reference computations that gauge how fast the machine is right now.

On a shared VM the speed of a vCPU drifts by up to 1.9x, for stretches of
seconds to minutes, as other tenants load the host, and CPU time drifts with
wall time. Timing a reference computation just before and just after every
operation gives the machine's speed over it; the benchmark scales each
operation's wall time by that speed. The references are the benchmark's own
and never change with pwclock, so a change in pwclock moves the scaled
time, and a change in the machine's speed largely does not.

Each part follows one kind of work pwclock spends its time on: Python-level
scalar loops over closed forms, numpy calls on small arrays, small ``eigh``
calls, and elementwise numpy passes over arrays larger than a core's own
caches. A workload is gauged by the parts whose speed moves with its own
(see ``workloads.py``).
"""

from __future__ import annotations

import math
import time

import numpy as np

_SMALL = np.linspace(0.0, 1.0, 2000)
_MATRIX = np.array([[0.5, 0.1], [0.1, -0.5]])
# Bound now, so that a tracer that later wraps numpy.linalg.eigh does not see
# the reference's calls.
_EIGH = np.linalg.eigh


def _python() -> float:
    s = 0.0
    for i in range(15_000):
        x = i * 1e-3
        s += math.exp(-x * x) * math.cos(x) + f"{x:.17g}".__len__()
    return s


def _numpy_small() -> float:
    s = 0.0
    for _ in range(400):
        s += float(np.sum(np.exp(-_SMALL**2) * np.cos(_SMALL)))
    return s


def _eigh() -> float:
    s = 0.0
    for _ in range(1000):
        s += float(_EIGH(_MATRIX)[0][0])
    return s


# The large-array part works in place in 8 MB buffers allocated on first
# use: passes that allocated their temporaries would run at the speed of
# whatever the allocator last returned to the kernel, which depends on what
# ran just before them. The buffers add 24 MB to the harness's memory.
_LARGE: list[np.ndarray] = []


def _numpy_large() -> float:
    if not _LARGE:
        _LARGE.extend([np.linspace(0.0, 1.0, 1 << 20), np.empty(1 << 20), np.empty(1 << 20)])
    x, a, b = _LARGE
    s = 0.0
    for _ in range(3):
        np.multiply(x, x, out=a)
        np.negative(a, out=b)
        np.exp(b, out=b)
        np.add(a, 1.0, out=a)
        np.divide(x, a, out=a)
        np.sqrt(a, out=a)
        np.multiply(a, b, out=a)
        s += float(np.sum(a))
    return s


PARTS = {
    "python": _python,
    "numpy_small": _numpy_small,
    "eigh": _eigh,
    "numpy_large": _numpy_large,
}

# Each part's wall time on the fast state of a 2-vCPU Xeon VM at 2.1 GHz. A
# time in reference seconds is a wall time scaled to a machine on which the
# gauging parts take this long, so it reads close to wall seconds on that VM.
NOMINAL_S = {"python": 0.011, "numpy_small": 0.0085, "eigh": 0.006, "numpy_large": 0.020}


class Gauge:
    """Times a fixed set of parts and scales wall times by their speed."""

    def __init__(self, parts=tuple(PARTS)) -> None:
        self.funcs = [PARTS[name] for name in parts]
        self.nominal = sum(NOMINAL_S[name] for name in parts)

    def seconds(self) -> float:
        """Wall time of the parts, run once each."""
        start = time.perf_counter()
        for func in self.funcs:
            func()
        return time.perf_counter() - start

    def scale(self, elapsed: float, before: float, after: float) -> float:
        """``elapsed`` wall seconds in reference seconds.

        ``before`` and ``after`` are timings of the parts taken just before
        and just after; their mean gauges the machine's speed in between.
        """
        return elapsed * 2.0 * self.nominal / (before + after)
