"""Conditional-probability engine.

Position-conditioned densities over abstract time, their ideal-clock
concentration limit, and the discretized entangled history state that serves
as the brute-force oracle for "evolution without evolution": probabilities
for the system are read off a globally static clock+system state conditioned
on a clock position.

Abstract time is integrated over [0, min(n_reset, 1/r)] on uniform trapezoid
grids (deterministic, smooth Gaussian integrands). Quadrature weights double
as the discretized entanglement coefficients of the history state.

The history state is stored unnormalized and built in O(K*d); conditioning
normalizes each reading on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import (
    ClockParams,
    DegenerateSupport,
    NotAProjector,
    OutOfRange,
    SystemSpec,
)
from .clock import wavefunction
from .evolution import evolve_exact
from .timemap import n_from_x_exact, n_from_x_log

__all__ = [
    "PosteriorDensity",
    "HistoryState",
    "position_given_n",
    "posterior_over_n",
    "ideal_limit_concentration",
    "build_history_state",
    "conditional_system_probability",
]

# Below this, an unnormalized integral is treated as an unreachable reading.
_SUPPORT_FLOOR = 1e-300

# Clock amplitudes per block of readings conditioned at once. A block holds
# max(1, _BLOCK_ELEMENTS // K) readings, so its (readings x K) temporaries
# stay at about this many elements for any K up to it, rather than growing as K.
_BLOCK_ELEMENTS = 2**18


def _block_rows(grid_size: int) -> int:
    return max(1, _BLOCK_ELEMENTS // grid_size)


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


@dataclass(frozen=True)
class HistoryState:
    """Discretized entangled clock+system state over an abstract-time grid.

    The state is sum_k weights[k] |clock(n_k)> |sys_states[k]>, with
    trapezoid weights on [0, n_reset]. It is stored unnormalized:
    conditioning normalizes each reading by <v|v>, so the global norm
    cancels and is never formed.
    """

    grid: np.ndarray
    weights: np.ndarray
    sys_states: np.ndarray
    clock_params: ClockParams


def build_history_state(
    spec: SystemSpec, params: ClockParams, grid_size: int
) -> HistoryState:
    """Entangled history state on a uniform grid over [0, n_reset].

    System slices are exp(+i*H*n_k) applied to the initial state; weights
    are trapezoid weights. The build costs O(K*d) and evaluates no clock
    amplitude.
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


def conditional_system_probability(history: HistoryState, x, projector):
    """Probability of each projector outcome given clock reading(s) x.

    Conditions the history state on position x: with
    v = sum_k w_k <x|clock(n_k)> |sys_k>, returns <v|P|v> / <v|v>.
    ``projector`` is one (d, d) matrix P, or a stack of shape (p, d, d).
    For one matrix, an array of readings gives an array of the same shape
    and a scalar a float; a stack gives an array of shape (p, *x.shape),
    row j for projector j. Each v is built once and serves every projector.

    Readings are conditioned in blocks whose clock amplitudes hold at most
    ``_BLOCK_ELEMENTS`` values; each v is contracted on its own, in
    ascending grid order, so every value is bit-for-bit the one a
    single-projector call for that reading returns.

    Raises
    ------
    NotAProjector
        If the shape does not match the system, or a projector is not
        Hermitian idempotent within 1e-10 (the message names its index in
        a stack). Every projector is checked before any amplitude.
    InvalidAbstractTime
        If the history grid leaves the clock's running window.
    DegenerateSupport
        If the conditioning denominator underflows for any reading (x
        unreachable), or a value's imaginary residue or range is off.
    """
    dim = history.sys_states.shape[1]
    projectors = np.asarray(projector, dtype=np.complex128)
    single = projectors.ndim == 2
    if projectors.ndim not in (2, 3) or projectors.shape[-2:] != (dim, dim):
        raise NotAProjector(f"projector shape {projectors.shape} does not match the system")
    if single:
        projectors = projectors[None]
    for index, matrix in enumerate(projectors):
        name = "projector" if single else f"projector {index}"
        if np.max(np.abs(matrix - matrix.conj().T)) > 1e-10:
            raise NotAProjector(f"{name} is not Hermitian within 1e-10")
        if np.max(np.abs(matrix @ matrix - matrix)) > 1e-10:
            raise NotAProjector(f"{name} is not idempotent within 1e-10")

    x = np.asarray(x, dtype=float)
    readings = x.reshape(-1)
    out = np.empty((len(projectors), readings.size))
    rows = _block_rows(history.grid.size)
    for start in range(0, readings.size, rows):
        block = readings[start:start + rows]
        weighted = wavefunction(block[:, None], history.grid, history.clock_params)
        np.multiply(history.weights, weighted, out=weighted)
        for i, reading in enumerate(block):
            conditioned = weighted[i] @ history.sys_states
            denominator = np.vdot(conditioned, conditioned).real
            if not np.isfinite(denominator) or denominator < _SUPPORT_FLOOR:
                raise DegenerateSupport(
                    f"reading x = {reading} is unreachable: conditioning weight {denominator}"
                )
            for j, matrix in enumerate(projectors):
                value = np.vdot(conditioned, matrix @ conditioned) / denominator
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
                out[j, start + i] = min(max(value.real, 0.0), 1.0)
    if single:
        return out[0].reshape(x.shape) if x.ndim else float(out[0, 0])
    return out.reshape(out.shape[:1] + x.shape)
