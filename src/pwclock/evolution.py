"""Exact and clock-parameterized evolution of the finite-dimensional system.

The exact route evolves with ``exp(+i*H*n)`` in abstract time; the clock
route evolves with the rescaled generator ``2*H/(r*A)`` for a "duration"
``y = A - x`` read off the clock. Their fidelity quantifies how well the
clock position serves as a time parameter.

Sign convention: the evolution operator is ``exp(+i*H*n)`` (positive
exponent), as dictated by the weak constraint tying the clock and system
generators.
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
    _overflow_checked,
    _require,
    _scalar_or_array,
    _shapes_fit,
)
from .clock import position_expectation
from .timemap import n_from_x_linear

__all__ = [
    "fidelity",
    "evolve_exact",
    "evolve_via_clock",
    "compare_evolutions",
    "default_qubit_spec",
]


@dataclass(frozen=True, eq=False)
class EvolutionComparisonTable:
    """Exact vs clock-parameterized evolution on a grid, as columns.

    ``n``, ``x``, ``y`` and ``fidelity`` hold one entry per row; the state
    arrays hold one state per row.
    """

    n: np.ndarray
    x: np.ndarray
    y: np.ndarray
    state_exact: np.ndarray
    state_clock: np.ndarray
    fidelity: np.ndarray
    worst_fidelity: float


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a|b> over the last axis, one BLAS dot per value: each rounds as np.vdot (not einsum)."""
    return np.matmul(a.conj()[..., None, :], b[..., :, None])[..., 0, 0]


def fidelity(a: np.ndarray, b: np.ndarray):
    """Squared overlap |<a|b>|^2 / (<a|a> <b|b>) of state vectors, normalization-safe.

    Stacks of states (leading axes) give an array of fidelities. Where a
    squared norm, their product or |<a|b>|^2 is not a finite normal float,
    as for states with huge or tiny entries, that pair is formed again from
    each state scaled exactly, by a power of two, so that its largest real
    or imaginary part lies in [0.5, 1).

    Raises
    ------
    ValidationError
        If a or b has no axis, their last axes differ or are empty, or their
        stacks do not broadcast; or if a state of a or b is zero or has a
        non-finite entry (names the first, with its squared norm).
    """
    a, b = _floats("a", a, complex_ok=True), _floats("b", b, complex_ok=True)
    _shapes_fit("states a and b", a, b, holds=min(a.ndim, b.ndim) > 0 and a.shape[-1] == b.shape[-1] > 0)
    with np.errstate(all="ignore"):
        norm_a, norm_b = _inner(a, a).real, _inner(b, b).real
        overlap, product = np.abs(_inner(a, b)) ** 2, norm_a * norm_b
        out = overlap / product
    values = np.array(np.broadcast_arrays(norm_a, norm_b, product, overlap))
    tiny = np.finfo(float).tiny
    # NaN fails both tests; an empty stack passes both and returns an empty array.
    if not (np.min(values, initial=np.inf) >= tiny and np.max(values, initial=0.0) < np.inf):
        exponents = []
        for name, state, norm in (("a", a, norm_a), ("b", b, norm_b)):
            part = np.maximum(np.abs(state.real), np.abs(state.imag)).max(axis=-1)
            _require(norm, (part > 0.0) & (part < np.inf), lambda v, i: ValidationError(
                f"{name} must have a finite nonzero norm, got squared norm {v} at state {i}"))
            exponents.append(-np.frexp(part)[1][..., None])
        a, b = (np.ldexp(s.real, e) + 1j * np.ldexp(s.imag, e) for s, e in zip((a, b), exponents))
        rescaled = np.abs(_inner(a, b)) ** 2 / (_inner(a, a).real * _inner(b, b).real)
        out = np.where(np.all((values >= tiny) & (values < np.inf), axis=0), out, rescaled)
    return _scalar_or_array(out)


def _eigensystem(spec: SystemSpec):
    try:
        energies, modes = np.linalg.eigh(spec.hamiltonian)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    if not (np.all(np.isfinite(energies)) and np.all(np.isfinite(modes))):
        raise NumericalError(f"eigenvalues of the generator overflow; its largest |entry| is "
                             f"{np.abs(spec.hamiltonian).max()}")
    return energies, modes


def evolve_exact(spec: SystemSpec, n) -> np.ndarray:
    """State exp(+i*H*n) applied to the initial state, via eigendecomposition.

    ``n`` is an abstract time or an array of them; the result has one state
    per time along its last axis, (*n.shape, d). One eigendecomposition
    serves every time, and each state is assembled on its own, by one
    matrix-vector product per row, so a row equals the state a scalar call
    for its time returns. Each eigenphase exp(+i*E*n) is assembled as
    cos(E*n) + i*sin(E*n) from the real angle E*n, so unitarity holds to
    rounding. Rows with ``n == 0`` are the initial state itself.

    Raises
    ------
    ValidationError
        If any n is not finite, or E*n overflows there for an energy E of
        the generator; names the first.
    """
    n = _finite("n", n)
    energies, modes = _eigensystem(spec)
    _overflow_checked("n", n, "E*n", lambda v: np.max(np.abs(energies)) * v)  # the largest |E*n|
    coeffs = modes.conj().T @ spec.initial_state
    angles = energies * n[..., None]
    phased = np.empty(angles.shape, dtype=np.complex128)
    np.cos(angles, out=phased.real)
    np.sin(angles, out=phased.imag)
    phased *= coeffs
    states = np.matmul(modes, phased[..., None])[..., 0]
    states[n == 0.0] = spec.initial_state
    return states


def evolve_via_clock(spec: SystemSpec, x, params: ClockParams) -> np.ndarray:
    """State exp(+i * (2*H/(r*A)) * (A - x)) applied to the initial state.

    The clock reading x enters only through the linear time map, so this is
    ``evolve_exact`` at ``n_from_x_linear(x)`` = 2*(A - x)/(r*A); ``x = A``
    returns the initial state itself. An array of readings gives one state
    per reading.

    Raises
    ------
    ValidationError
        If r = 0 (the rescaled generator is undefined), or if any x > A, or
        is -inf or NaN, or if the linear time map overflows there (x =
        -1e308); names the first.
    """
    return evolve_exact(spec, n_from_x_linear(x, params))


def compare_evolutions(
    spec: SystemSpec, params: ClockParams, grid_size: int
) -> EvolutionComparisonTable:
    """Exact vs clock-parameterized evolution on a uniform n-grid over [0, n_reset).

    Row k pairs n_k with the expected reading x = <x>(n_k). The fidelity is
    1 exactly at n = 0 and degrades smoothly along the run; the table also
    carries the worst-row fidelity.
    """
    grid_size = _checked_whole("grid_size", grid_size, 2)
    n = np.arange(grid_size) * (params.n_reset / grid_size)
    x = position_expectation(n, params)
    state_exact = evolve_exact(spec, n)
    state_clock = evolve_via_clock(spec, x, params)
    fid = fidelity(state_exact, state_clock)
    return EvolutionComparisonTable(
        n=n,
        x=x,
        y=params.amplitude - x,
        state_exact=state_exact,
        state_clock=state_clock,
        fidelity=fid,
        worst_fidelity=min(1.0, float(fid.min())),
    )


def default_qubit_spec() -> SystemSpec:
    """Demo system: a qubit with energies +/- 1/2, started in (1,1)/sqrt(2)."""
    hamiltonian = np.diag([0.5, -0.5]).astype(np.complex128)
    initial = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
    return SystemSpec(hamiltonian=hamiltonian, initial_state=initial)
