"""Closed-form model of the damped-oscillator coherent-state clock.

The clock keeps time through its position: the wavepacket is a Gaussian
whose center oscillates on a decaying envelope

    <x>(n) = A * exp(-r*n/2) * cos(Omega*n),      A = sqrt(2*hbar/(m*omega)) * Re(alpha)

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
    _require,
    _scalar_or_array,
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
        Validated clock configuration.

    Raises
    ------
    ValidationError
        If any n is not finite (names the first), or the clock breaks a
        domain rule: hbar, m, omega positive finite numbers, r a finite
        number >= 0, r/2 < omega, alpha and phase finite.
    """
    envelope, _, cos = _mean_terms(_finite("n", n), params)
    return _scalar_or_array(envelope * cos)


def width(n, params: ClockParams):
    """Gaussian width exp(-r*n/2) * sqrt(hbar/(2*m*omega)).

    This is the standard deviation of the position density |psi(x, n)|^2.
    A non-finite n raises ValidationError naming the first, and so does a
    scale hbar, m or omega that is not a positive finite number, or a
    damping r that is not a finite number >= 0.
    """
    n = _finite("n", n)
    hbar, m_omega = params._scales()
    return _scalar_or_array(sqrt(hbar / (2.0 * m_omega)) * _decay(n, params))


def _decay(n, params: ClockParams):
    """The factor exp(-r*n/2) by which the mean's envelope and the width decay."""
    return np.exp(-params._damping() * n / 2.0)


def _mean_terms(n, params: ClockParams):
    """A*exp(-r*n/2), Omega*n and cos(Omega*n), unchecked: <x>(n) is the first times the last."""
    envelope = params.amplitude * _decay(n, params)
    phase = params.damped_frequency * n
    return envelope, phase, np.cos(phase)


def _value_and_slope(n, params: ClockParams):
    """<x>(n), as position_expectation rounds it, and its slope d<x>/dn, unchecked."""
    envelope, phase, cos = _mean_terms(n, params)
    slope = -envelope * (0.5 * params._damping() * cos + params.damped_frequency * np.sin(phase))
    return envelope * cos, slope


def wavefunction(x, n, params: ClockParams):
    """Coherent-state amplitude of the damped clock at position x, time n.

    Returns ``(2*pi*delta^2)**(-1/4) * exp(-(x - <x>)^2 / (4*delta^2) + i*phi)``
    with ``delta = width(n, params)`` and ``<x> = position_expectation(n, params)``,
    so that the squared magnitude integrates to 1 over x at every n.

    Parameters
    ----------
    x : float or ndarray
        Position(s).
    n : float or ndarray
        Abstract time(s) in [0, n_reset]; broadcast against x.
    params : ClockParams
        Validated clock configuration.

    Raises
    ------
    ValidationError
        If any n lies outside [0, n_reset], or any x is not finite; names
        the first.
    """
    check_abstract_time(n, params)
    x = _finite("x", x)
    return _scalar_or_array(_envelope(x, _envelope_terms(n, params)) * np.exp(1j * params.phase))


def _envelope_terms(n, params: ClockParams):
    """Per-time terms of ``_envelope``: <x>(n), -4*delta^2 and (2*pi*delta^2)**(-1/4).

    The times' finiteness is checked by ``position_expectation`` and ``width``, the window by callers.
    """
    n = np.asarray(n, dtype=float)
    delta = np.asarray(width(n, params))
    return position_expectation(n, params), -4.0 * delta**2, (2.0 * np.pi * delta**2) ** -0.25


def _envelope(x, terms, out=None) -> np.ndarray:
    """Real Gaussian magnitude of ``wavefunction``, without the global phase.

    ``(2*pi*delta^2)**(-1/4) * exp((x - <x>)^2 / (-4*delta^2))`` from the
    ``terms`` of ``_envelope_terms``, as a float64 array of the broadcast
    shape of x and the terms, built in place on ``out`` (a new array if
    None). The negation sits in the divisor, which IEEE division makes
    exact: the value is that of ``-(x - <x>)^2 / (4*delta^2)``.
    """
    mean, neg_four_var, prefactor = terms
    out = np.asarray(np.subtract(np.asarray(x, dtype=float), mean, out=out))
    np.square(out, out=out)
    np.divide(out, neg_four_var, out=out)
    np.exp(out, out=out)
    np.multiply(prefactor, out, out=out)
    return out


def decoherence_rate(n, params: ClockParams):
    """Decoherence rate r*hbar*exp(-r*n)/(m*omega), in length^2 per abstract time.

    This is the magnitude of the rate of change of the squared minimum
    Gaussian width; the value is reported positive. A non-finite n raises
    ValidationError naming the first, and so do the clock's rules for the
    scales and for r.
    """
    return _scalar_or_array(_rate(params._damping(), _finite("n", n), params))


def _rate(r, n, params: ClockParams):
    """The decoherence rate r*hbar*exp(-r*n)/(m*omega) at damping(s) r and time(s) n."""
    hbar, m_omega = params._scales()
    return r * hbar * np.exp(-r * n) / m_omega


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
        If any n <= 0, is NaN or is +inf; names the first.
    """
    n = np.asarray(n, dtype=float)
    _require(n, n > 0.0, lambda v, _: ValidationError(f"stationary damping requires n > 0, got {v}"))
    _require(n, n < np.inf, lambda v, _: ValidationError(
        f"stationary damping requires finite n, got {v}"))
    hbar, m_omega = params._scales()
    r_star = 1.0 / n
    d2 = hbar / m_omega * n * np.exp(-r_star * n) * (r_star * n - 2.0)
    kind = np.where(d2 < 0.0, "maximum", "flat")  # "flat" where d2 underflows to -0.0 or is NaN
    fields = r_star, kind, d2, _rate(r_star, n, params)
    return StationaryDamping(*map(_scalar_or_array, fields))


def recommend_damping(n_reset: float, params: ClockParams) -> float:
    """Damping choice r = 1/n_reset, the largest r stationary at end of run.

    Raises
    ------
    ValidationError
        If n_reset <= 0, is NaN or is +inf, if hbar, m or omega is not a
        positive finite number, or if 1/(2*n_reset) >= omega.
    """
    _require(n_reset, n_reset > 0.0, lambda v, _: ValidationError(
        f"recommendation requires n_reset > 0, got {v}"))
    _require(n_reset, n_reset < np.inf, lambda v, _: ValidationError(
        f"recommendation requires finite n_reset, got {v}"))
    params._scales()  # raises unless hbar, m and omega are positive finite numbers
    r = 1.0 / n_reset
    if r / 2.0 >= params.omega:
        raise ValidationError(
            f"r = 1/n_reset = {r} violates under-damping r/2 < omega = {params.omega}"
        )
    return r

