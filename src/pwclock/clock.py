"""Closed-form model of the damped-oscillator coherent-state clock.

The clock keeps time through its position: the wavepacket is a Gaussian
whose center oscillates on a decaying envelope

    <x>(n) = A * exp(-r*n/2) * cos(Omega*n),      A = sqrt(2*hbar/(m*omega)) * alpha

and whose probability-density standard deviation shrinks as

    delta(n) = exp(-r*n/2) * sqrt(hbar/(2*m*omega)).

``delta`` is the standard deviation of |psi(x, n)|^2; this convention fixes
the normalization constant to (2*pi*delta^2)**(-1/4).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Literal

import numpy as np

from .params import (
    ClockParams,
    ValidationError,
    _finite,
    _floats,
    _overflow_checked,
    _real,
    _require,
    _scalar_or_array,
    _shapes_fit,
    check_abstract_time,
)

__all__ = [
    "wavefunction",
    "position_expectation",
    "width",
    "decoherence_rate",
    "damping_stationary_point",
    "recommend_damping",
]

@dataclass(frozen=True)
class StationaryDamping:
    """Stationary point of the decoherence rate along the damping axis.

    Each field is a scalar for one time n and an array, one entry per time,
    for an array of times; ``rate`` is the decoherence rate at r_star, and
    ``second_difference`` is its closed-form curvature d2R/dr2 at r_star.
    """

    r_star: float | np.ndarray
    classification: Literal["maximum", "flat"] | np.ndarray
    second_difference: float | np.ndarray
    rate: float | np.ndarray


def position_expectation(n, params: ClockParams):
    """Expected clock position A * exp(-r*n/2) * cos(Omega*n).

    Parameters
    ----------
    n : float or ndarray
        Abstract time(s).
    params : ClockParams
        The clock.

    Raises
    ------
    ValidationError
        If any n is not finite, or the value overflows at a finite n (such
        as n = -3000 at r = 0.5, far before the window); names the first.
    """
    return _overflow_checked("n", _finite("n", n), "A*exp(-r*n/2)*cos(Omega*n)",
                             lambda t: np.multiply(*_mean_terms(t, params)[::2]))


def width(n, params: ClockParams):
    """Gaussian width exp(-r*n/2) * sqrt(hbar/(2*m*omega)).

    This is the standard deviation of the position density |psi(x, n)|^2.
    A non-finite n raises ValidationError naming the first, and so does a
    finite n at which the width overflows, far before the window.
    """
    scale = sqrt(params.hbar / (2.0 * (params.mass * params.omega)))
    return _overflow_checked("n", _finite("n", n), "exp(-r*n/2)*sqrt(hbar/(2*m*omega))",
                             lambda t: scale * _decay(t, params))


def _decay(n, params: ClockParams):
    """The factor exp(-r*n/2) by which the mean's envelope and the width decay."""
    return np.exp(-params.damping * n / 2.0)


def _mean_terms(n, params: ClockParams):
    """A*exp(-r*n/2), Omega*n and cos(Omega*n), unchecked: <x>(n) is the first times the last."""
    envelope = params.amplitude * _decay(n, params)
    phase = params.damped_frequency * n
    return envelope, phase, np.cos(phase)


def _value_and_slope(n, params: ClockParams):
    """<x>(n), as position_expectation rounds it, and its slope d<x>/dn, unchecked."""
    envelope, phase, cos = _mean_terms(n, params)
    slope = -envelope * (0.5 * params.damping * cos + params.damped_frequency * np.sin(phase))
    return envelope * cos, slope


def wavefunction(x, n, params: ClockParams):
    """Coherent-state amplitude of the damped clock at position x, time n.

    Returns the real ``(2*pi*delta^2)**(-1/4) * exp(-(x - <x>)^2 / (4*delta^2))``
    with ``delta = width(n, params)`` and ``<x> = position_expectation(n, params)``,
    so that its square integrates to 1 over x at every n: a float, or a float
    array of the broadcast shape of x and n. An x so far from <x> that
    (x - <x>)^2 overflows gives exactly 0, the Gaussian's value there.

    Parameters
    ----------
    x : float or ndarray
        Position(s).
    n : float or ndarray
        Abstract time(s) in [0, n_reset]; broadcast against x.
    params : ClockParams
        The clock.

    Raises
    ------
    ValidationError
        If any n lies outside [0, n_reset], or any x is not finite (names
        the first), or x and n do not broadcast.
    """
    check_abstract_time(n, params)
    x = _finite("x", x)
    _shapes_fit("x and n", x, n)
    mean, neg_four_var, prefactor = _envelope_terms(n, params)
    with np.errstate(over="ignore"):  # an overflowing (x - <x>)^2 gives exp(-inf) = 0
        out = _envelope(x, (mean, neg_four_var))
        return _scalar_or_array(np.multiply(prefactor, out, out=out))


def _envelope_terms(n, params: ClockParams):
    """Per-time terms of the amplitude: <x>(n) and -4*delta^2, which ``_envelope``
    takes, and the prefactor (2*pi*delta^2)**(-1/4).

    The times' finiteness is checked by ``position_expectation`` and ``width``, the window by callers.
    """
    n = np.asarray(n, dtype=float)
    delta = np.asarray(width(n, params))
    return position_expectation(n, params), -4.0 * delta**2, (2.0 * np.pi * delta**2) ** -0.25


def _envelope(x, terms, out=None) -> np.ndarray:
    """The Gaussian factor of ``wavefunction``, unchecked, without its prefactor.

    ``exp((x - <x>)^2 / (-4*delta^2))`` from ``terms`` = (<x>, -4*delta^2),
    the first two terms of ``_envelope_terms``, as a float64 array of the
    broadcast shape of x and the terms, built in place on ``out`` (a new
    array if None). The negation sits in the divisor, which IEEE division
    makes exact: the value is that of ``-(x - <x>)^2 / (4*delta^2)``. Where
    the square overflows the value is 0; callers silence that overflow
    warning. ``wavefunction`` multiplies the prefactor onto the result, and
    conditioning folds it into each grid point's weight once per call.
    """
    mean, neg_four_var = terms
    out = np.asarray(np.subtract(np.asarray(x, dtype=float), mean, out=out))
    np.square(out, out=out)
    np.divide(out, neg_four_var, out=out)
    np.exp(out, out=out)
    return out


def decoherence_rate(n, params: ClockParams):
    """Decoherence rate r*hbar*exp(-r*n)/(m*omega), in length^2 per abstract time.

    This is the magnitude of the rate of change of the squared minimum
    Gaussian width; the value is reported positive. A non-finite n raises
    ValidationError naming the first, and so does a finite n at which the
    rate overflows, far before the window.
    """
    return _overflow_checked("n", _finite("n", n), "r*hbar*exp(-r*n)/(m*omega)",
                             lambda t: _rate(params.damping, t, params))


def _rate(r, n, params: ClockParams):
    """The decoherence rate r*hbar*exp(-r*n)/(m*omega) at damping(s) r and time(s) n."""
    return r * params.hbar * np.exp(-r * n) / (params.mass * params.omega)


def damping_stationary_point(n, params: ClockParams) -> StationaryDamping:
    """Stationary point of the decoherence rate along r at fixed n.

    The rate R(r) = r*hbar*exp(-r*n)/(m*omega) is stationary in r exactly
    where r*n = 1. ``second_difference`` is its closed-form curvature there,
    d2R/dr2 = hbar/(m*omega) * n * exp(-r*n) * (r*n - 2) = -hbar/(m*omega) * n/e,
    and the classification is read from its sign: the point is a maximum of
    the rate along the damping axis for every n > 0. An array of times gives
    array fields.

    Raises
    ------
    ValidationError
        If any n <= 0, is NaN or is +inf, or if a field overflows there
        (1/n at n = 1e-320); names the first.
    """
    n = _floats("n", n)
    _require(n, n > 0.0, lambda v, _: ValidationError(f"stationary damping requires n > 0, got {v}"))
    _require(n, n < np.inf, lambda v, _: ValidationError(
        f"stationary damping requires finite n, got {v}"))
    with np.errstate(all="ignore"):  # a field that is not finite is named below
        r_star = 1.0 / n
        d2 = params.hbar / (params.mass * params.omega) * n * np.exp(-r_star * n) * (r_star * n - 2.0)
        rate = _rate(r_star, n, params)
    finite = np.isfinite(r_star) & np.isfinite(d2) & np.isfinite(rate)
    _require(n, finite, lambda v, _: ValidationError(f"stationary damping overflows at n = {v}"))
    kind = np.where(d2 < 0.0, "maximum", "flat")  # "flat" where d2 underflows to -0.0
    return StationaryDamping(*map(_scalar_or_array, (r_star, kind, d2, rate)))


def recommend_damping(n_reset: float) -> float:
    """Damping choice r = 1/n_reset, the largest r stationary at end of run.

    Under-damping is the clock's rule: a ClockParams built with this r
    checks it, as it checks every rule.

    Raises
    ------
    ValidationError
        If n_reset is not a number, or is <= 0, NaN or +inf, or if 1/n_reset
        overflows (n_reset = 1e-320).
    """
    n_reset = _real("n_reset", n_reset)
    _require(n_reset, n_reset > 0.0, lambda v, _: ValidationError(
        f"recommendation requires n_reset > 0, got {v}"))
    _require(n_reset, n_reset < np.inf, lambda v, _: ValidationError(
        f"recommendation requires finite n_reset, got {v}"))
    return _overflow_checked("n_reset", n_reset, "1/n_reset", lambda v: 1.0 / v)
