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
    ClockParams,
    ValidationError,
    _checked_whole,
    _floats,
    _overflow_checked,
    _require,
    _scalar_or_array,
)
from .clock import _value_and_slope, position_expectation

__all__ = [
    "n_from_x_exact",
    "n_from_x_log",
    "n_from_x_linear",
    "invert_position",
    "linearization_report",
]

# Largest final Newton step of the exact inversion, and the iteration cap.
_ROOT_TOL = 1e-13
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
    n_exact: float | np.ndarray
    n_log: float | np.ndarray
    n_linear: float | np.ndarray
    rel_error_linear: float | np.ndarray


def n_from_x_exact(x, params: ClockParams):
    """Unique n in [0, n_reset) with position_expectation(n) = x, per reading.

    The map f(n) = <x>(n) = A e^(-rn/2) cos(Omega n) is strictly decreasing
    on the window when Omega * n_reset < pi/2 (checked at call time), with
    slope f'(n) = -A e^(-rn/2) (r/2 cos(Omega n) + Omega sin(Omega n)) < 0
    for n > 0. Each root is found by Newton's method on that slope, started
    from the undamped inverse arccos(x/A) / Omega: as e^(-rn/2) <= 1, it lies
    at or above the root, and at r = 0 it is the root. Every reading keeps a
    bracket [lo, hi] on the root, and a step that would leave it bisects the
    bracket instead. A reading stops when its step is at most 1e-13, taking
    that step, or when f(n) = x exactly. Newton converges quadratically, so
    the result is within 1e-13 of the root, or within the reading's own
    rounding, about ulp(A) / |f'(n)|, where that is larger (near n = 0 on a
    weakly damped clock); a root within that rounding of n_reset may come
    out as n_reset. All unconverged readings step together, and each
    reading's steps depend on that reading alone, so every value equals the
    one a scalar call for that reading returns.

    Raises
    ------
    ValidationError
        If Omega * n_reset >= pi/2, or if any x > A or x <= <x>(n_reset), or
        is NaN; names the first.
    """
    n_reset, amp = params.n_reset, params.amplitude
    if params.damped_frequency * n_reset >= pi / 2.0:
        raise ValidationError(
            f"Omega * n_reset = {params.damped_frequency * n_reset} >= pi/2; "
            "the position map is not guaranteed invertible on this window"
        )
    floor = position_expectation(n_reset, params)  # the lowest reading: the mean falls strictly
    x = _floats("x", x)
    interval = f"the attained interval ({floor}, {amp}]"
    inside = (x > floor) & (x <= amp)
    _require(x, inside, lambda v, _: ValidationError(f"reading x = {v} outside {interval}"))

    readings = x.reshape(-1)
    out = np.zeros(readings.size)  # x == A maps to n = 0
    idx = np.flatnonzero(readings != amp)
    target = readings[idx]
    lo, hi = np.zeros(idx.size), np.full(idx.size, n_reset)
    n = np.minimum(np.arccos(target / amp) / params.damped_frequency, hi)
    for _ in range(_ROOT_MAX_ITER):
        f, slope = _value_and_slope(n, params)
        f -= target
        above = f > 0.0  # n lies below the root
        lo = np.where(above, n, lo)
        hi = np.where(above, hi, n)
        step = n - f / slope  # n itself where f(n) = x exactly
        # A step beyond the open bracket bisects it, unless the step is small
        # enough to stop on: near the root it can round onto n itself.
        bisect = ~((lo < step) & (step < hi) | (np.abs(step - n) <= _ROOT_TOL))
        step[bisect] = 0.5 * (lo[bisect] + hi[bisect])
        done = np.abs(step - n) <= _ROOT_TOL
        out[idx[done]] = step[done]
        live = ~done
        idx, target, lo, hi, n = idx[live], target[live], lo[live], hi[live], step[live]
        if not idx.size:
            break
    else:
        out[idx] = n
    return _scalar_or_array(out.reshape(x.shape))


def n_from_x_log(x, params: ClockParams):
    """Log-form inversion (2/r) * ln(A/x), valid on the decay envelope.

    Raises
    ------
    ValidationError
        If r = 0, or if any x <= 0 or x > A, or is NaN, or if the value
        overflows (A/x at x = 1e-320); names the first.
    """
    r = params.damping
    if r == 0.0:
        raise ValidationError("log-form inversion undefined for r = 0")
    x = _floats("x", x)
    amp = params.amplitude
    _require(x, (x > 0.0) & (x <= amp), lambda v, _: ValidationError(f"reading x = {v} outside (0, {amp}]"))
    return _overflow_checked("reading x", x, "(2/r)*ln(A/x)", lambda v: (2.0 / r) * np.log(amp / v))


def n_from_x_linear(x, params: ClockParams):
    """First-order inversion 2*(A - x)/(r*A).

    Raises
    ------
    ValidationError
        If r = 0 (callers must use n_from_x_exact instead), or if any x > A,
        or is -inf or NaN, or if the value overflows (x = -1e308); names
        the first.
    """
    r = params.damping
    if r == 0.0:
        raise ValidationError("linear inversion undefined for r = 0")
    x = _floats("x", x)
    amp = params.amplitude
    inside = (x > -np.inf) & (x <= amp)
    _require(x, inside, lambda v, _: ValidationError(f"reading x = {v} outside (-inf, {amp}]"))
    return _overflow_checked("reading x", x, "2*(A - x)/(r*A)", lambda v: 2.0 * (amp - v) / (r * amp))


def invert_position(x, params: ClockParams) -> TimeMapResult:
    """All three inversions of reading(s) x, with the linear-form error."""
    n_exact = n_from_x_exact(x, params)
    n_log = n_from_x_log(x, params)
    n_lin = n_from_x_linear(x, params)
    rel = np.abs(np.subtract(n_lin, n_exact)) / np.maximum(n_exact, _EPS_FLOOR)
    x = _floats("x", x)
    fields = x, params.amplitude - x, n_exact, n_log, n_lin, rel
    return TimeMapResult(*(_scalar_or_array(np.asarray(field)) for field in fields))


def linearization_report(params: ClockParams, grid_size: int) -> TimeMapResult:
    """Inversion table on a uniform n-grid over [0, n_reset), as columns.

    Row k maps n_k -> x = <x>(n_k) forward and then recovers n_k by all
    three routes, so the linear-form relative error can be tracked along
    the run. Each field of the result holds one entry per row.

    Raises
    ------
    ValidationError
        If grid_size is not a whole number in [2, 2**24], Omega * n_reset
        >= pi/2, or r = 0 (the log and linear forms are undefined there).
    """
    grid_size = _checked_whole("grid_size", grid_size, 2)
    step = params.n_reset / grid_size
    return invert_position(position_expectation(np.arange(grid_size) * step, params), params)
