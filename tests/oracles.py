"""Independent numerical oracles shared by the test modules.

Everything here goes through a different route than the code under test:
moments by brute-force quadrature of the density, derivatives by central
finite differences, propagators by scipy's matrix exponential, extrema by
bounded scalar minimization, clock-state overlaps by the closed-form
two-Gaussian integral, conditioning by a sum over every grid point.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.optimize

from pwclock import (
    ClockParams,
    SystemSpec,
    position_expectation,
    position_given_n,
    validate_clock_params,
    wavefunction,
    width,
)

QUAD_POINTS = 20001
QUAD_SIGMA_SPAN = 12.0


def quadrature_moments(params: ClockParams, n: float, mean_hint: float, width_hint: float):
    """(norm, mean, std) of the position density by trapezoid quadrature."""
    xs = np.linspace(
        mean_hint - QUAD_SIGMA_SPAN * width_hint,
        mean_hint + QUAD_SIGMA_SPAN * width_hint,
        QUAD_POINTS,
    )
    dens = position_given_n(xs, n, params)
    norm = np.trapezoid(dens, xs)
    mean = np.trapezoid(xs * dens, xs) / norm
    var = np.trapezoid((xs - mean) ** 2 * dens, xs) / norm
    return float(norm), float(mean), float(np.sqrt(var))


def quadrature_overlap(params: ClockParams, n_a: float, n_b: float) -> complex:
    """<clock(n_a)|clock(n_b)> by trapezoid quadrature over position."""
    mus = [position_expectation(n_a, params), position_expectation(n_b, params)]
    ds = [width(n_a, params), width(n_b, params)]
    lo = min(mus) - QUAD_SIGMA_SPAN * max(ds)
    hi = max(mus) + QUAD_SIGMA_SPAN * max(ds)
    xs = np.linspace(lo, hi, QUAD_POINTS)
    vals = np.conj(wavefunction(xs, n_a, params)) * wavefunction(xs, n_b, params)
    return complex(np.trapezoid(vals, xs))


def coherent_overlap(n_a, n_b, params: ClockParams):
    """Closed-form overlap <clock(n_a)|clock(n_b)> of two clock states.

    Both states are Gaussians with real profile (the constant global phase
    cancels), so the overlap is the standard two-Gaussian integral

        sqrt(2*d_a*d_b / (d_a^2 + d_b^2)) * exp(-(mu_a - mu_b)^2 / (4*(d_a^2 + d_b^2)))

    with d = width and mu = position expectation at each time. Arrays of
    times broadcast against each other.
    """
    d_a = np.asarray(width(n_a, params))
    d_b = np.asarray(width(n_b, params))
    mu_a = np.asarray(position_expectation(n_a, params))
    mu_b = np.asarray(position_expectation(n_b, params))
    ssum = d_a**2 + d_b**2
    out = np.sqrt(2.0 * d_a * d_b / ssum) * np.exp(-((mu_a - mu_b) ** 2) / (4.0 * ssum))
    return out if out.ndim else float(out)


def full_range_conditional(history, x, projector) -> np.ndarray:
    """<v|P|v> / <v|v> for each reading, with v summed over the whole grid.

    The unbanded reference for conditioning: one row of clock amplitudes
    over every grid point per reading, weighted in place and contracted in
    ascending grid order, then clamped to [0, 1]. Readings are flattened;
    ``projector`` is one (d, d) matrix.
    """
    out = []
    for reading in np.asarray(x, dtype=float).reshape(-1):
        weighted = wavefunction(np.array([[reading]]), history.grid, history.clock_params)
        np.multiply(history.weights, weighted, out=weighted)
        conditioned = weighted[0] @ history.sys_states
        value = np.vdot(conditioned, projector @ conditioned) / np.vdot(conditioned, conditioned).real
        out.append(min(max(value.real, 0.0), 1.0))
    return np.array(out)


def central_difference(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_difference(f, x: float, h: float) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2


def expm_state(spec: SystemSpec, n: float) -> np.ndarray:
    """exp(+i*H*n) applied to the initial state via scipy's expm."""
    return scipy.linalg.expm(1j * spec.hamiltonian * n) @ spec.initial_state


def located_rate_extremum(n: float, params: ClockParams) -> float:
    """Numerically located extremum of the decoherence rate along r at fixed n."""

    def negated(r: float) -> float:
        return -r * params.hbar * np.exp(-r * n) / (params.mass * params.omega)

    result = scipy.optimize.minimize_scalar(
        negated, bounds=(1e-9, 5.0 / n), method="bounded", options={"xatol": 1e-10}
    )
    return float(result.x)


def loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])


def random_clock_params(rng: np.random.Generator) -> ClockParams:
    """Random valid clock, well-conditioned for relative moment comparisons."""
    omega = rng.uniform(0.5, 2.0)
    damping = rng.uniform(0.0, 0.9) * 2.0 * omega
    if damping > 0.0:
        n_reset = rng.uniform(0.3, 1.0) / damping
    else:
        n_reset = rng.uniform(0.5, 3.0)
    params = ClockParams(
        hbar=rng.uniform(0.5, 2.0),
        mass=rng.uniform(0.5, 2.0),
        omega=omega,
        damping=damping,
        alpha=complex(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0)),
        n_reset=n_reset,
    )
    return validate_clock_params(params)


def random_probe_time(rng: np.random.Generator, params: ClockParams) -> float:
    """Abstract time inside the window with the mean bounded away from zero."""
    cap = min(params.n_reset, 1.2 / params.damped_frequency)
    return float(rng.uniform(0.0, 0.999) * cap)


def random_invertible_params(rng: np.random.Generator) -> ClockParams:
    """Random valid clock whose position map is monotone on [0, n_reset]."""
    params = random_clock_params(rng)
    cap = 0.95 * (np.pi / 2.0) / params.damped_frequency
    n_reset = min(params.n_reset, cap) * rng.uniform(0.3, 1.0)
    from dataclasses import replace

    return validate_clock_params(replace(params, n_reset=n_reset))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2.0


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return raw / np.linalg.norm(raw)
