"""Conditional-probability engine.

Position-conditioned densities over abstract time, their ideal-clock
concentration limit, and the discretized entangled history state that serves
as the brute-force oracle for "evolution without evolution": probabilities
for the system are read off a globally static clock+system state conditioned
on a clock position.

Abstract time is integrated over [0, n_reset] on uniform trapezoid
grids (deterministic, smooth Gaussian integrands). Quadrature weights double
as the discretized entanglement coefficients of the history state.

The history state is stored unnormalized and built in O(K*d); conditioning
normalizes each reading on its own and, where the clock's mean position is
monotone along the grid, costs O(band) per reading rather than O(K). The
clock's global phase multiplies every amplitude and cancels from every
probability, so densities and conditioning use the real Gaussian envelope
of the amplitude and never multiply the phase in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import (
    ClockParams,
    NumericalError,
    OutOfRange,
    SystemSpec,
    ValidationError,
    _checked_whole,
    _finite,
    _require,
    _scalar_or_array,
    check_abstract_time,
)
from .clock import _envelope, _envelope_terms, width
from .evolution import _inner, evolve_exact
from .timemap import n_from_x_exact, n_from_x_log

__all__ = [
    "position_given_n",
    "posterior_over_n",
    "ideal_limit_concentration",
    "build_history_state",
    "conditional_system_probability",
]

# Below this, an unnormalized integral is treated as an unreachable reading.
_SUPPORT_FLOOR = 1e-300


def position_given_n(x, n, params: ClockParams):
    """Probability density |<x|clock(n)>|^2 of reading x at abstract time n.

    A density in x: integrates to 1 over x at every fixed n. It is the
    squared real envelope of the amplitude, so the clock's global phase
    never enters it. An n outside [0, n_reset], or a non-finite x, raises
    ValidationError naming the first.
    """
    check_abstract_time(n, params)
    x = _finite("x", x)
    return _envelope(x, _envelope_terms(n, params)) ** 2


@dataclass(frozen=True, eq=False)
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
) -> PosteriorDensity:
    """Posterior density over abstract time n' given a position reading x.

    The density is |<x|clock(n')>|^2 normalized by its trapezoid integral
    over a uniform grid on [0, n_reset]; a validated clock has n_reset <= 1/r.

    Raises
    ------
    ValidationError
        If grid_size is not a whole number in [2, 2**24], or x is not finite.
    NumericalError
        If the unnormalized integral underflows (x unreachable).
    """
    grid_size = _checked_whole("grid_size", grid_size, 2)
    grid = np.linspace(0.0, params._n_reset(), grid_size)
    raw = position_given_n(x, grid, params)
    norm_raw = float(np.trapezoid(raw, grid))
    if not np.isfinite(norm_raw) or norm_raw < _SUPPORT_FLOOR:
        raise NumericalError(
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
    ValidationError
        If window is not a finite number > 0.
    OutOfRange
        If x exceeds the amplitude, or lies below the attainable window for
        an undamped clock.
    """
    _require(window, 0.0 < window < np.inf, lambda v, _: ValidationError(
        f"window must be a finite number > 0, got {v}"))
    try:
        center = n_from_x_exact(x, params)
    except OutOfRange:
        if params._damping() > 0.0 and 0.0 < x <= params.amplitude:
            center = n_from_x_log(x, params)
        else:
            raise
    posterior = posterior_over_n(x, params, grid_size)
    return posterior.mass_within(center - window, center + window)


@dataclass(frozen=True, eq=False)
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
    grid_size = _checked_whole("grid_size", grid_size, 16)
    grid = np.linspace(0.0, params._n_reset(), grid_size)
    step = grid[1] - grid[0]
    weights = np.full(grid_size, step)
    weights[0] = weights[-1] = step / 2.0
    return HistoryState(
        grid=grid,
        weights=weights,
        sys_states=evolve_exact(spec, grid),
        clock_params=params,
    )


def _reading_bands(history: HistoryState, readings: np.ndarray, mean: np.ndarray):
    """Grid bands [lo, hi) outside which every term of a reading's v is negligible.

    Term k of v = sum_k w_k <x|clock(n_k)> |sys_k> has magnitude
    w_k (2*pi*d_k^2)^(-1/4) exp(-(x - mu_k)^2 / (4*d_k^2)) |sys_0|, with mean
    mu_k and width d_k at n_k. Let d0 >= d_k >= d1 bound the widths on the
    grid, rho = d0/d1, and g = |x - mu_j| at the nearest mean mu_j. If
    |x - mu_k| > rho*g + R, the exponent of term k is below that of term j
    by more than R^2 / (4*d0^2). The weights differ by at most a factor 2
    and the prefactors by at most sqrt(rho), so term k is below
    2 * sqrt(rho) * exp(-R^2 / (4*d0^2)) of term j, which
    R = 2*d0*sqrt(ln(2^54 * K * sqrt(rho))) makes 2^-53 / K. Where mu
    strictly decreases along the grid, the terms kept are one contiguous run
    of k, found by two searchsorted calls on -mu. Elsewhere the band is the
    whole grid. ``mean`` is mu over the grid, and every reading is finite.
    """
    grid, params = history.grid, history.clock_params
    size = grid.size
    neg_mean = -mean
    if not np.all(np.diff(neg_mean) > 0.0):
        return np.zeros(readings.size, dtype=np.intp), np.full(readings.size, size)
    widest, narrowest = width(grid[0], params), width(grid[-1], params)
    ratio = widest / narrowest
    reach = 2.0 * widest * np.sqrt(np.log(2.0**54 * size * np.sqrt(ratio)))
    nearest = np.searchsorted(neg_mean, -readings).clip(1, size - 1)
    gap = np.minimum(
        np.abs(readings + neg_mean[nearest - 1]), np.abs(readings + neg_mean[nearest])
    )
    radius = ratio * gap + reach
    lo = np.searchsorted(neg_mean, -(readings + radius), side="left")
    hi = np.searchsorted(neg_mean, radius - readings, side="right")
    return lo, hi


def conditional_system_probability(history: HistoryState, x, projector):
    """Probability of each projector outcome given clock reading(s) x.

    Conditions the history state on position x: with
    v = sum_k w_k <x|clock(n_k)> |sys_k>, returns <v|P|v> / <v|v>.
    ``projector`` is one (d, d) matrix P, or a stack of shape (p, d, d).
    For one matrix, an array of readings gives an array of the same shape
    and a scalar a float; a stack gives an array of shape (p, *x.shape),
    row j for projector j. Each v is built once and serves every projector.

    The clock's global phase e^{i*phi} multiplies every term of v, so it
    cancels from the ratio; it is never multiplied in, and v is summed from
    the real Gaussian envelopes of the clock amplitudes. Every value is
    therefore exactly independent of the phase.

    Each reading sums only its band: the contiguous run of grid points k
    with |x - mu_k| <= rho*g + reach, where mu_k is the clock's mean at n_k,
    rho = delta(0) / delta(n_reset), reach = 2*delta(0)*sqrt(ln(2^54 * K *
    sqrt(rho))) (13.6 delta(0) for the oracle-check clock at K = 8192), and
    g is the distance from x to the nearest mu_k: under a grid step for a
    reading inside the range of mu, larger for one beyond it, whose band
    widens to match. Every term left out is below 2^-53 / K of the band's largest term, so
    all of them together stay below 2^-53 of it: under the rounding of the
    sum itself. A reading costs O(band), and the band narrows as
    1/sqrt(m*omega). The run is contiguous only where mu strictly
    decreases along the grid, as it does on the monotone window
    Omega*n_reset < pi/2; on a clock whose mean turns back, every band is
    the whole grid and each reading costs O(K), in the same loop.

    The clock's mean, -4*delta^2 and (2*pi*delta^2)^(-1/4) are formed once
    per call over the grid. Readings are then conditioned one at a time, in
    reading order: each evaluates its envelopes over exactly its band, in
    one reused buffer, and its v is one BLAS contraction over the band, in
    ascending grid order. Every <v|v> and <v|P|v> is then formed in one
    batched pass over all readings and projectors, one BLAS dot per value,
    so every value is bit-for-bit the one a single-projector call for that
    reading returns, and the one ``np.vdot(v, P @ v) / np.vdot(v, v)`` gives.

    Raises
    ------
    ValidationError
        If the shape does not match the system, or a projector is not
        Hermitian idempotent within 1e-10 (the message names its index in
        a stack), a non-finite entry failing both tests; if the history grid
        leaves the clock's running window; or if a reading x is not finite (names
        the first). Projectors, grid and readings are checked before any amplitude.
    NumericalError
        If the conditioning denominator underflows for any reading (x
        unreachable), or a value's imaginary residue or range is off. Each
        of the three is checked over every reading in turn, and the message
        names the first offending reading in reading order.
    """
    dim = history.sys_states.shape[1]
    projectors = np.asarray(projector, dtype=np.complex128)
    single = projectors.ndim == 2
    if projectors.ndim not in (2, 3) or projectors.shape[-2:] != (dim, dim):
        raise ValidationError(f"projector shape {projectors.shape} does not match the system")
    if single:
        projectors = projectors[None]
    for index, matrix in enumerate(projectors):
        name = "projector" if single else f"projector {index}"
        # "not <=" so that a NaN deviation, from a non-finite entry, fails too.
        with np.errstate(invalid="ignore"):
            if not np.max(np.abs(matrix - matrix.conj().T)) <= 1e-10:
                raise ValidationError(f"{name} is not Hermitian within 1e-10")
            if not np.max(np.abs(matrix @ matrix - matrix)) <= 1e-10:
                raise ValidationError(f"{name} is not idempotent within 1e-10")
    grid, params = history.grid, history.clock_params
    check_abstract_time(grid, params)

    x = _finite("x", x)
    readings = x.reshape(-1)
    mean, neg_four_var, prefactor = _envelope_terms(grid, params)
    lo, hi = _reading_bands(history, readings, mean)
    # One float buffer and one complex row, reused by every reading; the
    # row's imaginary part stays zero.
    widest = int(np.max(hi - lo, initial=0))
    envelope, row = np.empty(widest), np.zeros(widest, dtype=np.complex128)
    weighted, weights, states = row.real, history.weights, history.sys_states
    conditioned = np.empty((readings.size, dim), dtype=np.complex128)
    for index, (reading, first, last) in enumerate(zip(readings.tolist(), lo.tolist(), hi.tolist())):
        size = last - first
        terms = mean[first:last], neg_four_var[first:last], prefactor[first:last]
        out = _envelope(reading, terms, envelope[:size])
        np.multiply(weights[first:last], out, out=weighted[:size])
        np.dot(row[:size], states[first:last], out=conditioned[index])

    denominators = _inner(conditioned, conditioned).real
    reachable = np.isfinite(denominators) & (denominators >= _SUPPORT_FLOOR)
    _require(denominators, reachable, lambda v, i: NumericalError(
        f"reading x = {readings[i]} is unreachable: conditioning weight {v}"))
    kets = np.matmul(projectors[:, None], conditioned[:, :, None])[..., 0]
    # Reading-major, (reading, projector): flat index i is reading i // p. NaN
    # passes both checks ("not >"), and the clip keeps it.
    values = (_inner(conditioned, kets) / denominators).T
    p = len(projectors)
    _require(values.imag, ~(np.abs(values.imag) > 1e-9), lambda v, i: NumericalError(
        f"imaginary residue {v} exceeds 1e-9 at reading x = {readings[i // p]};"
        " projector arithmetic degenerated"))
    in_range = ~((values.real < -1e-9) | (values.real > 1.0 + 1e-9))
    _require(values.real, in_range, lambda v, i: NumericalError(
        f"conditional probability {v} at reading x = {readings[i // p]} outside [0, 1] tolerance"))
    out = np.clip(values.real.T, 0.0, 1.0).reshape((p,) + x.shape)
    return _scalar_or_array(out[0] if single else out)
