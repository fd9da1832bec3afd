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
clock's amplitude is real, so each reading's conditioned vector is one real
dot of its Gaussian envelope with the weighted states' float view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import (
    ClockParams,
    NumericalError,
    SystemSpec,
    ValidationError,
    _checked_whole,
    _finite,
    _floats,
    _real,
    _require,
    _scalar_or_array,
    check_abstract_time,
)
from .clock import _envelope, _envelope_terms, wavefunction, width
from .evolution import _inner, evolve_exact
from .timemap import n_from_x_exact

__all__ = [
    "posterior_over_n",
    "ideal_limit_concentration",
    "build_history_state",
    "conditional_system_probability",
]

# Below this, an unnormalized integral is treated as an unreachable reading.
_SUPPORT_FLOOR = 1e-300

# Every reading band starts and ends on a multiple of this many grid points,
# or at the grid's end, so that BLAS adds a band's terms in the same groups
# as a sum over the whole grid would.
_BAND_ALIGNMENT = 16


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
    over a uniform grid on [0, n_reset]; every clock has n_reset <= 1/r.

    Raises
    ------
    ValidationError
        If x is not one finite number, or grid_size is not a whole number in
        [2, 2**24].
    NumericalError
        If the unnormalized integral underflows (x unreachable).
    """
    x = _real("x", x)
    grid_size = _checked_whole("grid_size", grid_size, 2)
    grid = np.linspace(0.0, params.n_reset, grid_size)
    raw = wavefunction(x, grid, params) ** 2
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
    the recovered time, which is ``n_from_x_exact(x)``.

    Raises
    ------
    ValidationError
        If x is not one number, window is not a finite number > 0, Omega *
        n_reset >= pi/2, or x lies outside the attained interval
        (<x>(n_reset), A] or is NaN.
    """
    x, window = _real("x", x), _real("window", window)
    _require(window, 0.0 < window < np.inf, lambda v, _: ValidationError(
        f"window must be a finite number > 0, got {v}"))
    center = n_from_x_exact(x, params)
    posterior = posterior_over_n(x, params, grid_size)
    return posterior.mass_within(center - window, center + window)


@dataclass(frozen=True, eq=False)
class HistoryState:
    """Discretized entangled clock+system state over an abstract-time grid.

    The state is sum_k weights[k] |clock(n_k)> |sys_states[k]>, with
    trapezoid weights on [0, n_reset]. It is stored unnormalized:
    conditioning normalizes each reading by <v|v>, so the global norm
    cancels and is never formed. ``check_abstract_time`` checks the grid
    against the clock's running window when the state is made, by
    ``dataclasses.replace`` too, so no state leaves its window.
    """

    grid: np.ndarray
    weights: np.ndarray
    sys_states: np.ndarray
    clock_params: ClockParams

    def __post_init__(self) -> None:
        check_abstract_time(self.grid, self.clock_params)


def build_history_state(
    spec: SystemSpec, params: ClockParams, grid_size: int
) -> HistoryState:
    """Entangled history state on a uniform grid over [0, n_reset].

    System slices are exp(+i*H*n_k) applied to the initial state; weights
    are trapezoid weights. The build costs O(K*d) and evaluates no clock
    amplitude.
    """
    grid_size = _checked_whole("grid_size", grid_size, 16)
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
    of k, found by two searchsorted calls on -mu, and rounded outward to
    multiples of ``_BAND_ALIGNMENT`` clipped to [0, K]: the aligned band
    holds the derived one. Elsewhere the band is the whole grid. ``mean`` is
    mu over the grid, and every reading is finite.
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
    return lo - lo % _BAND_ALIGNMENT, np.minimum(hi + -hi % _BAND_ALIGNMENT, size)


def conditional_system_probability(history: HistoryState, x, projector):
    """Probability of each projector outcome given clock reading(s) x.

    Conditions the history state on position x: with
    v = sum_k w_k <x|clock(n_k)> |sys_k>, returns <v|P|v> / <v|v>.
    ``projector`` is one (d, d) matrix P, or a stack of shape (p, d, d).
    For one matrix, an array of readings gives an array of the same shape
    and a scalar a float; a stack gives an array of shape (p, *x.shape),
    row j for projector j. Each v is built once and serves every projector.
    The clock's amplitudes are real.

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

    The band is rounded outward to multiples of 16 grid points, so that the
    BLAS sum over it groups its terms as a sum over the whole grid does: a
    banded v equals the whole grid's sum bit for bit, where the terms left
    out round away.

    The clock's mean and -4*delta^2 are formed once per call over the grid,
    and so are the scaled states: w_k * (2*pi*delta_k^2)^(-1/4) times the
    real and imaginary parts of |sys_k>, a (K, 2d) float array. Readings are
    then conditioned one at a time, in reading order: each evaluates its
    Gaussian exp(-(x - mu_k)^2 / (4*delta_k^2)) over exactly its band, in one
    reused buffer, and its v is one real BLAS dot of that Gaussian with the
    band's scaled states, written into v's float view. A reading's v so
    depends on that reading alone, not on the others in the call, and not
    on the BLAS thread count (measured with OpenBLAS at 1, 2 and 4 threads
    up to K = 262,144). Every <v|v> and <v|P|v> is then formed in one
    batched pass over all readings and projectors, one BLAS dot per value,
    so every value is bit-for-bit the one a single-projector call for that
    reading returns, and the one ``np.vdot(v, P @ v) / np.vdot(v, v)`` gives.

    Raises
    ------
    ValidationError
        If the shape does not match the system, or a projector is not
        Hermitian idempotent within 1e-10 (the message names its index in
        a stack), a non-finite entry failing both tests; or if a reading x is
        not finite (names the first). Projectors and readings are checked
        before any amplitude.
    NumericalError
        If the conditioning denominator underflows for any reading (x
        unreachable), or a value's imaginary residue or range is off. Each
        of the three is checked over every reading in turn, and the message
        names the first offending reading in reading order.
    """
    dim = history.sys_states.shape[1]
    projectors = np.asarray(_floats("projector", projector, complex_ok=True), dtype=complex)
    single = projectors.ndim == 2
    if projectors.ndim not in (2, 3) or projectors.shape[-2:] != (dim, dim):
        raise ValidationError(f"projector shape {projectors.shape} does not match the system")
    if single:
        projectors = projectors[None]
    # Per projector, its Hermitian then its idempotent deviation; "<=" so that
    # a NaN deviation, from a non-finite entry, fails too.
    with np.errstate(invalid="ignore", over="ignore"):
        deviations = np.stack([
            np.abs(projectors - projectors.conj().transpose(0, 2, 1)).max(axis=(1, 2)),
            np.abs(projectors @ projectors - projectors).max(axis=(1, 2)),
        ], axis=1)
    names = ["projector"] if single else [f"projector {i}" for i in range(len(projectors))]
    _require(deviations, deviations <= 1e-10, lambda _, i: ValidationError(
        f"{names[i // 2]} is not {('Hermitian', 'idempotent')[i % 2]} within 1e-10"))
    grid, params = history.grid, history.clock_params
    x = _finite("x", x)
    readings = x.reshape(-1)
    mean, neg_four_var, prefactor = _envelope_terms(grid, params)
    # A huge finite reading may overflow its band's keys x +- radius and its
    # (x - mu)^2 to inf: its band is the whole grid, its envelopes exactly 0,
    # and it fails below as unreachable. One errstate serves every reading.
    with np.errstate(over="ignore"):
        lo, hi = _reading_bands(history, readings, mean)
        states = np.ascontiguousarray(history.sys_states, dtype=np.complex128).view(np.float64)
        scaled = (history.weights * prefactor)[:, None] * states
        # One float buffer, reused by every reading's Gaussian; each v is
        # written through the float view of its row.
        envelope = np.empty(int(np.max(hi - lo, initial=0)))
        conditioned = np.empty((readings.size, dim), dtype=np.complex128)
        rows = conditioned.view(np.float64)
        for index, (reading, first, last) in enumerate(
            zip(readings.tolist(), lo.tolist(), hi.tolist())
        ):
            out = _envelope(reading, (mean[first:last], neg_four_var[first:last]),
                            envelope[:last - first])
            np.dot(out, scaled[first:last], out=rows[index])

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
