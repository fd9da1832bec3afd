"""Conditional-probability engine.

Position-conditioned densities over abstract time, their ideal-clock
concentration limit, and the discretized entangled history state that serves
as the brute-force oracle for "evolution without evolution": probabilities
for the system are read off a globally static clock+system state conditioned
on a clock position.

Abstract time is integrated over [0, min(n_reset, 1/r)] on uniform trapezoid
grids (deterministic, smooth Gaussian integrands). Quadrature weights double
as the discretized entanglement coefficients of the history state.

Building a history state costs O(K*d): conditioning divides by <v|v>, so the
global norm cancels there and its O(K^2) contraction over clock-state
overlaps runs only when ``HistoryState.norm`` is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import (
    ClockParams,
    DegenerateSupport,
    NotAProjector,
    OutOfRange,
    SystemSpec,
)
from .clock import position_expectation, wavefunction, width
from .evolution import evolve_exact
from .timemap import n_from_x_exact, n_from_x_log

__all__ = [
    "PosteriorDensity",
    "HistoryState",
    "position_given_n",
    "posterior_over_n",
    "ideal_limit_concentration",
    "coherent_overlap",
    "build_history_state",
    "conditional_system_probability",
]

# Below this, an unnormalized integral is treated as an unreachable reading.
_SUPPORT_FLOOR = 1e-300

# Rows per block, bounding temporaries to O(block * K): grid rows of the
# K x K joint Gram structure, or readings conditioned at once.
_BLOCK_ROWS = 256


def position_given_n(x, n, params: ClockParams):
    """Probability density |<x|clock(n)>|^2 of reading x at abstract time n.

    A density in x: integrates to 1 over x at every fixed n.
    """
    return np.abs(wavefunction(x, n, params)) ** 2


@dataclass(frozen=True)
class PosteriorDensity:
    """Normalized density over abstract time conditioned on a reading x.

    ``norm_raw`` is the unnormalized integral of |<x|clock(n')>|^2 over the
    grid, kept so the literal (unnormalized) conditional value stays
    available alongside the normalized posterior.
    """

    x: float
    grid: np.ndarray
    density: np.ndarray
    norm_raw: float

    def mass_within(self, lo: float, hi: float) -> float:
        """Posterior mass on [lo, hi], with linear interpolation at the edges."""
        lo = max(lo, float(self.grid[0]))
        hi = min(hi, float(self.grid[-1]))
        if hi <= lo:
            return 0.0
        inside = self.grid[(self.grid > lo) & (self.grid < hi)]
        pts = np.concatenate(([lo], inside, [hi]))
        vals = np.interp(pts, self.grid, self.density)
        return float(np.trapezoid(vals, pts))


def posterior_over_n(
    x: float,
    params: ClockParams,
    grid_size: int = 2048,
    n_max: float | None = None,
) -> PosteriorDensity:
    """Posterior density over abstract time n' given a position reading x.

    The density is |<x|clock(n')>|^2 normalized by its trapezoid integral
    over a uniform grid on [0, min(n_reset, 1/r)] (or [0, n_max] when an
    explicit bound is supplied, e.g. for an undamped clock).

    Raises
    ------
    DegenerateSupport
        If the unnormalized integral underflows (x unreachable).
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    if n_max is None:
        inverse_r = np.inf if params.damping == 0.0 else 1.0 / params.damping
        n_max = min(params.n_reset, inverse_r)
    elif n_max <= 0.0:
        raise ValueError(f"explicit integration bound must be > 0, got {n_max}")
    grid = np.linspace(0.0, n_max, grid_size)
    raw = position_given_n(x, grid, params)
    norm_raw = float(np.trapezoid(raw, grid))
    if not np.isfinite(norm_raw) or norm_raw < _SUPPORT_FLOOR:
        raise DegenerateSupport(
            f"reading x = {x} is unreachable: unnormalized integral {norm_raw}"
        )
    return PosteriorDensity(x=x, grid=grid, density=raw / norm_raw, norm_raw=norm_raw)


def ideal_limit_concentration(
    x: float,
    params: ClockParams,
    window: float,
    grid_size: int = 4096,
) -> float:
    """Posterior mass within `window` of the abstract time recovered from x.

    As the clock narrows (m*omega/hbar large at fixed amplitude) this
    fraction approaches 1 for any fixed window: the posterior collapses onto
    the recovered time. Readings below the attainable window are located on
    the decay envelope via the log-form inversion, which can place the
    window partly or wholly outside the integration range (fraction near 0).

    Raises
    ------
    OutOfRange
        If x exceeds the amplitude, or lies below the attainable window for
        an undamped clock.
    """
    try:
        center = n_from_x_exact(x, params)
    except OutOfRange:
        if params.damping > 0.0 and 0.0 < x <= params.amplitude:
            center = n_from_x_log(x, params)
        else:
            raise
    posterior = posterior_over_n(x, params, grid_size)
    return posterior.mass_within(center - window, center + window)


def coherent_overlap(n_a, n_b, params: ClockParams):
    """Closed-form overlap <clock(n_a)|clock(n_b)> of two clock states.

    Both states are Gaussians with real profile (the constant global phase
    cancels), so the overlap is the standard two-Gaussian integral

        sqrt(2*d_a*d_b / (d_a^2 + d_b^2)) * exp(-(mu_a - mu_b)^2 / (4*(d_a^2 + d_b^2)))

    with d = width and mu = position expectation at each time.
    """
    d_a = np.asarray(width(n_a, params))
    d_b = np.asarray(width(n_b, params))
    mu_a = np.asarray(position_expectation(n_a, params))
    mu_b = np.asarray(position_expectation(n_b, params))
    ssum = d_a**2 + d_b**2
    out = np.sqrt(2.0 * d_a * d_b / ssum) * np.exp(-((mu_a - mu_b) ** 2) / (4.0 * ssum))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class HistoryState:
    """Discretized entangled clock+system state over an abstract-time grid.

    The joint state is (1/norm) * sum_k weights[k] |clock(n_k)> |sys_states[k]>
    with trapezoid weights on [0, n_reset]; ``norm`` makes it unit under the
    joint inner product, clock-state overlaps included. It is contracted on
    first access, in O(K^2) time, and cached; conditioning never reads it.
    """

    grid: np.ndarray
    weights: np.ndarray
    sys_states: np.ndarray
    clock_params: ClockParams

    @cached_property
    def norm(self) -> float:
        """Global norm sqrt(sum_{j,k} w_j w_k <clock_j|clock_k> <sys_j|sys_k>)."""
        return float(
            np.sqrt(_joint_quadratic_form(self.grid, self.weights, self.sys_states, self.clock_params))
        )


def _joint_quadratic_form(
    grid: np.ndarray, weights: np.ndarray, sys_states: np.ndarray, params: ClockParams
) -> float:
    """sum_{j,k} w_j w_k <clock_j|clock_k> <sys_j|sys_k>, contracted blockwise."""
    total = 0.0
    for start in range(0, grid.size, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, grid.size)
        clock_block = coherent_overlap(grid[start:stop, None], grid[None, :], params)
        sys_block = sys_states[start:stop].conj() @ sys_states.T
        total += float(
            np.real(weights[start:stop] @ ((clock_block * sys_block) @ weights))
        )
    return total


def build_history_state(
    spec: SystemSpec, params: ClockParams, grid_size: int
) -> HistoryState:
    """Entangled history state on a uniform grid over [0, n_reset].

    System slices are exp(+i*H*n_k) applied to the initial state; weights
    are trapezoid weights. The build costs O(K*d) and evaluates no clock
    overlaps: the global norm is left to ``HistoryState.norm``.
    """
    if grid_size < 16:
        raise ValueError(f"grid_size must be >= 16, got {grid_size}")
    grid = np.linspace(0.0, params.n_reset, grid_size)
    step = grid[1] - grid[0]
    weights = np.full(grid_size, step)
    weights[0] = weights[-1] = step / 2.0
    return HistoryState(
        grid=grid,
        weights=weights,
        sys_states=evolve_exact(spec, grid),
        clock_params=params,
    )


def conditional_system_probability(history: HistoryState, x, projector: np.ndarray):
    """Probability of the projector outcome given clock reading(s) x.

    Conditions the history state on position x: with
    v = sum_k w_k <x|clock(n_k)> |sys_k>, returns <v|P|v> / <v|v>. An array
    of readings gives an array of the same shape, a scalar a float. Readings
    are conditioned in blocks of at most ``_BLOCK_ROWS``; each v is
    contracted on its own, in ascending grid order, so every value is
    bit-for-bit the one a scalar call for that reading returns.

    Raises
    ------
    NotAProjector
        If the projector is not Hermitian idempotent within 1e-10.
    InvalidAbstractTime
        If the history grid leaves the clock's running window.
    DegenerateSupport
        If the conditioning denominator underflows for any reading (x
        unreachable), or a value's imaginary residue or range is off.
    """
    projector = np.asarray(projector, dtype=np.complex128)
    if projector.shape != (history.sys_states.shape[1],) * 2:
        raise NotAProjector(f"projector shape {projector.shape} does not match the system")
    if np.max(np.abs(projector - projector.conj().T)) > 1e-10:
        raise NotAProjector("projector is not Hermitian within 1e-10")
    if np.max(np.abs(projector @ projector - projector)) > 1e-10:
        raise NotAProjector("projector is not idempotent within 1e-10")

    x = np.asarray(x, dtype=float)
    readings = x.reshape(-1)
    out = np.empty(readings.size)
    for start in range(0, readings.size, _BLOCK_ROWS):
        block = readings[start:start + _BLOCK_ROWS]
        amplitudes = wavefunction(block[:, None], history.grid, history.clock_params)
        weighted = history.weights * amplitudes
        for i, reading in enumerate(block):
            conditioned = weighted[i] @ history.sys_states
            denominator = np.vdot(conditioned, conditioned).real
            if not np.isfinite(denominator) or denominator < _SUPPORT_FLOOR:
                raise DegenerateSupport(
                    f"reading x = {reading} is unreachable: conditioning weight {denominator}"
                )
            value = np.vdot(conditioned, projector @ conditioned) / denominator
            if abs(value.imag) > 1e-9:
                raise DegenerateSupport(
                    f"imaginary residue {value.imag} exceeds 1e-9 at reading x = {reading};"
                    " projector arithmetic degenerated"
                )
            if value.real < -1e-9 or value.real > 1.0 + 1e-9:
                raise DegenerateSupport(
                    f"conditional probability {value.real} at reading x = {reading}"
                    " outside [0, 1] tolerance"
                )
            out[start + i] = min(max(value.real, 0.0), 1.0)
    return out.reshape(x.shape) if x.ndim else float(out[0])
