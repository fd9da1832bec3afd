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
    AbstractTime,
    ClockParams,
    NonPositiveTime,
    UnderDampingViolated,
    check_abstract_time,
    first_outside,
)

__all__ = [
    "ClockMoments",
    "StationaryDamping",
    "wavefunction",
    "position_expectation",
    "width",
    "width_damping_derivative",
    "moments",
    "decoherence_rate",
    "damping_stationary_point",
    "recommend_damping",
]

# Central-stencil steps balancing truncation and roundoff at double precision.
_FD_STEP_FIRST = 1e-5
_FD_STEP_SECOND = 1e-3


@dataclass(frozen=True)
class ClockMoments:
    """Mean position and Gaussian width of the clock at abstract time n."""

    mean_x: float
    width: float
    n: AbstractTime


@dataclass(frozen=True)
class StationaryDamping:
    """Stationary point of the decoherence rate along the damping axis.

    Each field is a scalar for one time n and an array, one entry per time,
    for an array of times; ``rate`` is the decoherence rate at r_star.
    """

    r_star: float | np.ndarray
    classification: Literal["maximum", "minimum", "flat"] | np.ndarray
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
    """
    n = np.asarray(n, dtype=float)
    out = params.amplitude * np.exp(-params.damping * n / 2.0) * np.cos(params.damped_frequency * n)
    return out if out.ndim else float(out)


def width(n, params: ClockParams):
    """Gaussian width exp(-r*n/2) * sqrt(hbar/(2*m*omega)).

    This is the standard deviation of the position density |psi(x, n)|^2.
    """
    n = np.asarray(n, dtype=float)
    base = sqrt(params.hbar / (2.0 * params.mass * params.omega))
    out = base * np.exp(-params.damping * n / 2.0)
    return out if out.ndim else float(out)


def width_damping_derivative(n, params: ClockParams):
    """d(width)/dr at fixed n, computed from the width formula: -(n/2)*width(n).

    Strictly negative for n > 0, so no finite damping makes the width
    stationary; only r -> infinity would.
    """
    n = np.asarray(n, dtype=float)
    out = -(n / 2.0) * width(n, params)
    return out if out.ndim else float(out)


def moments(n: AbstractTime, params: ClockParams) -> ClockMoments:
    """Mean and width of the position density at abstract time n."""
    return ClockMoments(mean_x=position_expectation(n, params), width=width(n, params), n=n)


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
    InvalidAbstractTime
        If any n lies outside [0, n_reset].
    """
    n = np.asarray(check_abstract_time(n, params), dtype=float)
    x = np.asarray(x, dtype=float)
    delta = width(n, params)
    mean = position_expectation(n, params)
    norm = (2.0 * np.pi * np.asarray(delta) ** 2) ** -0.25
    amp = norm * np.exp(-((x - mean) ** 2) / (4.0 * np.asarray(delta) ** 2))
    out = amp * np.exp(1j * params.phase)
    return out if out.ndim else complex(out)


def decoherence_rate(n, params: ClockParams):
    """Decoherence rate r*hbar*exp(-r*n)/(m*omega), in length^2 per abstract time.

    This is the magnitude of the rate of change of the squared minimum
    Gaussian width; the value is reported positive.
    """
    n = np.asarray(n, dtype=float)
    out = (
        params.damping
        * params.hbar
        * np.exp(-params.damping * n)
        / (params.mass * params.omega)
    )
    return out if out.ndim else float(out)


def _rate_at_damping(r: float, n: float, params: ClockParams) -> float:
    return r * params.hbar * np.exp(-r * n) / (params.mass * params.omega)


def damping_stationary_point(n, params: ClockParams) -> StationaryDamping:
    """Stationary point of the decoherence rate along r at fixed n.

    The rate r*hbar*exp(-r*n)/(m*omega) is stationary in r exactly where
    r*n = 1; the returned classification (by central second difference,
    step 1e-3) reports whether that point is a maximum or minimum of the
    rate along the damping axis. An array of times gives array fields.

    Raises
    ------
    NonPositiveTime
        If any n <= 0, or is NaN; names the first.
    """
    n = np.asarray(n, dtype=float)
    bad = first_outside(n, n > 0.0)
    if bad is not None:
        raise NonPositiveTime(f"stationary damping requires n > 0, got {bad}")
    r_star = 1.0 / n
    h = _FD_STEP_SECOND
    scale = _rate_at_damping(r_star, n, params)
    d2 = (
        _rate_at_damping(r_star + h, n, params)
        - 2.0 * scale
        + _rate_at_damping(r_star - h, n, params)
    ) / h**2
    kind = np.where(
        np.abs(d2) <= 1e-9 * np.maximum(scale, 1.0),
        "flat",
        np.where(d2 < 0.0, "maximum", "minimum"),
    )
    if n.ndim:
        return StationaryDamping(r_star=r_star, classification=kind, second_difference=d2, rate=scale)
    return StationaryDamping(
        r_star=float(r_star), classification=str(kind), second_difference=float(d2), rate=float(scale)
    )


def recommend_damping(n_reset: float, params: ClockParams) -> float:
    """Damping choice r = 1/n_reset, the largest r stationary at end of run.

    Raises
    ------
    NonPositiveTime
        If n_reset <= 0.
    UnderDampingViolated
        If 1/(2*n_reset) >= omega.
    """
    if n_reset <= 0.0:
        raise NonPositiveTime(f"recommendation requires n_reset > 0, got {n_reset}")
    r = 1.0 / n_reset
    if r / 2.0 >= params.omega:
        raise UnderDampingViolated(
            f"r = 1/n_reset = {r} violates under-damping r/2 < omega = {params.omega}"
        )
    return r

