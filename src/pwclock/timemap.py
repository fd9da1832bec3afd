"""Recover abstract time from a clock position reading.

Three routes are shipped so the approximation chain is individually
testable:

* exact: root of ``position_expectation(n) = x`` on the monotone window,
* log form: ``n = (2/r) * ln(A/x)`` (cosine dropped),
* linear form: ``n = 2*(A - x)/(r*A)`` (log expanded to first order).

Every route takes a reading or an array of readings: an array gives an
array of the same shape, a scalar a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .params import (
    AbstractTime,
    ClockParams,
    NonMonotonicWindow,
    OutOfRange,
    ZeroDamping,
    first_outside,
)
from .clock import position_expectation

__all__ = [
    "TimeMapResult",
    "n_from_x_exact",
    "n_from_x_log",
    "n_from_x_linear",
    "invert_position",
    "linearization_report",
]

# Absolute tolerance in n for the exact inversion, and the iteration cap.
_ROOT_TOL = 1e-12
_ROOT_MAX_ITER = 200

# Floor in the relative-error denominator, avoiding division by zero at n = 0.
_EPS_FLOOR = 1e-12


@dataclass(frozen=True)
class TimeMapResult:
    """Exact and approximate abstract times recovered from reading(s) x.

    Each field is a float for one reading and an array, one entry per
    reading, for an array of readings. ``rel_error_linear`` is
    |n_linear - n_exact| / max(n_exact, 1e-12).
    """

    x: float | np.ndarray
    y: float | np.ndarray
    n_exact: AbstractTime | np.ndarray
    n_log: AbstractTime | np.ndarray
    n_linear: AbstractTime | np.ndarray
    rel_error_linear: float | np.ndarray


def _check_monotone_window(params: ClockParams) -> None:
    if params.damped_frequency * params.n_reset >= pi / 2.0:
        raise NonMonotonicWindow(
            f"Omega * n_reset = {params.damped_frequency * params.n_reset} >= pi/2; "
            "the position map is not guaranteed invertible on this window"
        )


def _require_within(x: np.ndarray, inside: np.ndarray, interval: str) -> None:
    """Raise OutOfRange naming the first reading not marked inside (NaN included)."""
    bad = first_outside(x, inside)
    if bad is not None:
        raise OutOfRange(f"reading x = {bad} outside {interval}")


def _scalar_or_array(out: np.ndarray):
    return out if out.ndim else float(out)


def n_from_x_exact(x, params: ClockParams):
    """Unique n in [0, n_reset) with position_expectation(n) = x, per reading.

    The map n -> <x>(n) is strictly decreasing on the window when
    Omega * n_reset < pi/2 (checked at call time), so each root is bracketed
    on [0, n_reset] and refined by bisection with secant steps to an
    absolute tolerance of 1e-12 in n. All unconverged readings take their
    step together; a reading leaves the loop when its bracket closes or a
    step lands exactly on its root, so every value equals the one a scalar
    call for that reading returns.

    Raises
    ------
    NonMonotonicWindow
        If Omega * n_reset >= pi/2.
    OutOfRange
        If any x > A or x <= <x>(n_reset), or is NaN; names the first.
    """
    _check_monotone_window(params)
    amp = params.amplitude
    floor = position_expectation(params.n_reset, params)
    x = np.asarray(x, dtype=float)
    _require_within(x, (x > floor) & (x <= amp), f"the attained interval ({floor}, {amp}]")

    readings = x.reshape(-1)
    out = np.zeros(readings.size)  # x == A maps to n = 0
    idx = np.flatnonzero(readings != amp)
    target = readings[idx]
    lo = np.zeros(idx.size)
    hi = np.full(idx.size, params.n_reset)
    f_lo = amp - target  # > 0
    f_hi = floor - target  # < 0
    found = np.zeros(idx.size, dtype=bool)
    for _ in range(_ROOT_MAX_ITER):
        closed = ~found & (hi - lo <= _ROOT_TOL)
        out[idx[closed]] = 0.5 * (lo[closed] + hi[closed])
        live = ~(found | closed)
        idx, target, lo, hi, f_lo, f_hi = (a[live] for a in (idx, target, lo, hi, f_lo, f_hi))
        if not idx.size:
            break
        span = hi - lo
        # Secant candidate from the bracket endpoints; bisect where it falls
        # outside the open bracket.
        cand = lo - f_lo * span / (f_hi - f_lo)
        outside = ~((lo < cand) & (cand < hi))
        cand[outside] = 0.5 * (lo[outside] + hi[outside])
        found = _shrink(cand, position_expectation(cand, params) - target, lo, hi, f_lo, f_hi)
        out[idx[found]] = cand[found]
        # Where the secant step failed to halve the bracket, bisect as well,
        # so stalls near an endpoint still converge at bisection rate.
        stalled = np.flatnonzero(~found & (hi - lo > 0.5 * span))
        if stalled.size:
            mid = 0.5 * (lo[stalled] + hi[stalled])
            ends = lo[stalled], hi[stalled], f_lo[stalled], f_hi[stalled]
            hit = _shrink(mid, position_expectation(mid, params) - target[stalled], *ends)
            lo[stalled], hi[stalled], f_lo[stalled], f_hi[stalled] = ends
            out[idx[stalled[hit]]] = mid[hit]
            found[stalled[hit]] = True
    else:
        out[idx[~found]] = 0.5 * (lo[~found] + hi[~found])
    return _scalar_or_array(out.reshape(x.shape))


def _shrink(n, f_n, lo, hi, f_lo, f_hi) -> np.ndarray:
    """Move one end of each bracket onto n by the sign of f(n), in place.

    Returns where f(n) == 0, the readings whose root n is exactly.
    """
    up = f_n > 0.0
    lo[up], f_lo[up] = n[up], f_n[up]
    down = ~up
    hi[down], f_hi[down] = n[down], f_n[down]
    return f_n == 0.0


def n_from_x_log(x, params: ClockParams):
    """Log-form inversion (2/r) * ln(A/x), valid on the decay envelope.

    Raises
    ------
    ZeroDamping
        If r = 0.
    OutOfRange
        If any x <= 0 or x > A, or is NaN; names the first.
    """
    if params.damping == 0.0:
        raise ZeroDamping("log-form inversion undefined for r = 0")
    x = np.asarray(x, dtype=float)
    _require_within(x, (x > 0.0) & (x <= params.amplitude), f"(0, {params.amplitude}]")
    return _scalar_or_array((2.0 / params.damping) * np.log(params.amplitude / x))


def n_from_x_linear(x, params: ClockParams):
    """First-order inversion 2*(A - x)/(r*A).

    Raises
    ------
    ZeroDamping
        If r = 0; callers must use n_from_x_exact instead.
    OutOfRange
        If any x > A, or is NaN; names the first.
    """
    if params.damping == 0.0:
        raise ZeroDamping("linear inversion undefined for r = 0")
    x = np.asarray(x, dtype=float)
    _require_within(x, x <= params.amplitude, f"(-inf, {params.amplitude}]")
    return _scalar_or_array(
        2.0 * (params.amplitude - x) / (params.damping * params.amplitude)
    )


def invert_position(x, params: ClockParams) -> TimeMapResult:
    """All three inversions of reading(s) x, with the linear-form error."""
    n_exact = n_from_x_exact(x, params)
    n_log = n_from_x_log(x, params)
    n_lin = n_from_x_linear(x, params)
    rel = np.abs(np.subtract(n_lin, n_exact)) / np.maximum(n_exact, _EPS_FLOOR)
    x = np.asarray(x, dtype=float)
    return TimeMapResult(
        x=_scalar_or_array(x),
        y=_scalar_or_array(params.amplitude - x),
        n_exact=n_exact,
        n_log=n_log,
        n_linear=n_lin,
        rel_error_linear=_scalar_or_array(rel),
    )


def linearization_report(params: ClockParams, grid_size: int) -> TimeMapResult:
    """Inversion table on a uniform n-grid over [0, n_reset), as columns.

    Row k maps n_k -> x = <x>(n_k) forward and then recovers n_k by all
    three routes, so the linear-form relative error can be tracked along
    the run. Each field of the result holds one entry per row.

    Raises
    ------
    ValueError
        If grid_size < 2.
    ZeroDamping, NonMonotonicWindow
        Propagated from the inversions.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    if params.damping == 0.0:
        raise ZeroDamping("linearization report undefined for r = 0")
    _check_monotone_window(params)
    step = params.n_reset / grid_size
    return invert_position(position_expectation(np.arange(grid_size) * step, params), params)
