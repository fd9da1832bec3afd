import math

import numpy as np
import pytest

from pwclock.evolution import _inner
from pwclock import (
    ClockParams,
    NumericalError,
    OutOfRange,
    SystemSpec,
    ValidationError,
    compare_evolutions,
    default_qubit_spec,
    evolve_exact,
    evolve_via_clock,
    fidelity,
    position_expectation,
    validate_clock_params,
    validate_system_spec,
)

from hypothesis import given, settings, strategies as st

from calibration import FIDELITY_LOSS_PREFACTOR, WORST_ROW_FIDELITY_FLOOR
from oracles import expm_state, loglog_slope, random_hermitian, random_state


def default_clock():
    return validate_clock_params(ClockParams(omega=1.0, damping=0.5, n_reset=2.0, alpha=1.0))


def test_zero_time_returns_initial_state():
    spec = default_qubit_spec()
    np.testing.assert_array_equal(evolve_exact(spec, 0.0), spec.initial_state)


def test_qubit_closed_form_at_pi():
    spec = default_qubit_spec()
    state = evolve_exact(spec, math.pi)
    expected = np.array([1j, -1j]) / math.sqrt(2.0)
    np.testing.assert_allclose(state, expected, atol=1e-12)
    # relative phase between components is exp(i*pi) = -1
    assert state[0] / state[1] == pytest.approx(-1.0, abs=1e-12)


def test_unitarity_random_four_level():
    rng = np.random.default_rng(31)
    spec = validate_system_spec(
        SystemSpec(dim=4, hamiltonian=random_hermitian(rng, 4), initial_state=random_state(rng, 4))
    )
    for n in (0.1, 1.0, 10.0):
        state = evolve_exact(spec, n)
        assert abs(np.vdot(state, state).real - 1.0) <= 1e-12


def test_matches_expm_oracle():
    rng = np.random.default_rng(37)
    spec = validate_system_spec(
        SystemSpec(dim=5, hamiltonian=random_hermitian(rng, 5), initial_state=random_state(rng, 5))
    )
    for n in (0.3, 2.2):
        np.testing.assert_allclose(evolve_exact(spec, n), expm_state(spec, n), atol=1e-12)


def test_evolution_composes():
    rng = np.random.default_rng(41)
    h = random_hermitian(rng, 4)
    psi = random_state(rng, 4)
    spec = validate_system_spec(SystemSpec(dim=4, hamiltonian=h, initial_state=psi))
    once = evolve_exact(spec, 0.9 + 1.3)
    midway = SystemSpec(dim=4, hamiltonian=h, initial_state=evolve_exact(spec, 0.9))
    np.testing.assert_allclose(evolve_exact(midway, 1.3), once, atol=1e-10)


@settings(max_examples=40)
@given(
    dim=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    times=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=16),
)
def test_evolve_many_matches_single(dim, seed, times):
    # One array call equals the stacked scalar calls and the one-state
    # formula bit for bit, and scipy's expm within 1e-12; a row with n == 0
    # is exactly the initial state.
    rng = np.random.default_rng(seed)
    spec = validate_system_spec(
        SystemSpec(dim=dim, hamiltonian=random_hermitian(rng, dim), initial_state=random_state(rng, dim))
    )
    ns = np.array(times + [0.0])
    many = evolve_exact(spec, ns)
    assert many.shape == (ns.size, dim)
    assert np.array_equal(many, np.stack([evolve_exact(spec, float(n)) for n in ns]))
    energies, modes = np.linalg.eigh(spec.hamiltonian)
    coeffs = modes.conj().T @ spec.initial_state
    moved = ns != 0.0
    one_by_one = [modes @ (np.exp(1j * energies * n) * coeffs) for n in ns[moved].tolist()]
    assert np.array_equal(many[moved], np.array(one_by_one).reshape(-1, dim))
    np.testing.assert_allclose(many, np.stack([expm_state(spec, n) for n in ns]), atol=1e-12)
    assert np.array_equal(many[-1], spec.initial_state)


def test_comparison_decomposes_the_generator_at_most_twice(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    compare_evolutions(default_qubit_spec(), default_clock(), 512)
    assert 1 <= len(calls) <= 2


def test_eigen_failure_on_malformed_matrix():
    bad = SystemSpec(
        dim=2,
        hamiltonian=np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex),
        initial_state=np.array([1.0, 0.0], dtype=complex),
    )
    with pytest.raises(NumericalError, match=(
        "^eigendecomposition produced non-finite output; malformed generator$"
    )):
        evolve_exact(bad, 1.0)


@pytest.mark.parametrize("scale", [1e150, 1e160, 1e-100, 1e-200, 5e-324, 1.7e308])
def test_fidelity_of_huge_and_tiny_states(scale):
    state = np.array([scale, 0.0])
    assert fidelity(state, state) == 1.0
    assert type(fidelity(state, state)) is float
    assert fidelity(state, state[::-1]) == 0.0
    assert fidelity(np.array([scale, scale * 1j]), state) == 0.5
    # In a stack, each pair gives what a call for that pair alone gives.
    stack = np.array([[scale, 0.0], [0.6, 0.8], [scale, scale]])
    fids = fidelity(stack, np.array([1.0, 1.0]))
    assert fids.tolist() == [fidelity(row, np.array([1.0, 1.0])) for row in stack]
    assert fids[0] == 0.5 and fids[2] == 1.0


def test_fidelity_keeps_its_rounding_for_ordinary_states():
    spec = default_qubit_spec()
    a, b = evolve_exact(spec, np.linspace(0.0, 3.0, 64)), spec.initial_state
    expected = np.abs(_inner(a, b)) ** 2 / (_inner(a, a).real * _inner(b, b).real)
    np.testing.assert_array_equal(fidelity(a, b), expected)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_evolve_exact_rejects_non_finite_time(bad):
    spec = default_qubit_spec()
    with pytest.raises(ValidationError, match=f"^n must be finite, got {bad}$"):
        evolve_exact(spec, bad)
    # An array names its first non-finite time.
    with pytest.raises(ValidationError, match=f"got {bad}$"):
        evolve_exact(spec, np.array([[0.5, 1.0], [bad, math.nan]]))


def test_clock_route_identity_at_amplitude():
    spec = default_qubit_spec()
    params = default_clock()
    np.testing.assert_array_equal(evolve_via_clock(spec, params.amplitude, params), spec.initial_state)


def test_clock_route_algebraic_identity():
    # Feeding the linearization's exact preimage y = r*A*n/2 reproduces the
    # exact evolution (up to a final rounding in the recovered duration).
    spec = default_qubit_spec()
    params = default_clock()
    for n in (0.2, 0.7, 1.4):
        y = params.damping * params.amplitude * n / 2.0
        state = evolve_via_clock(spec, params.amplitude - y, params)
        np.testing.assert_allclose(state, evolve_exact(spec, n), atol=5e-14)


def test_clock_route_guards():
    spec = default_qubit_spec()
    with pytest.raises(ValidationError, match="^linear inversion undefined for r = 0$"):
        evolve_via_clock(spec, 0.5, ClockParams(damping=0.0, n_reset=1.0, alpha=1.0))
    params = default_clock()
    with pytest.raises(OutOfRange):
        evolve_via_clock(spec, params.amplitude + 0.1, params)
    with pytest.raises(OutOfRange, match="x = nan "):
        evolve_via_clock(spec, np.array([0.5, math.nan]), params)


def test_fidelity_loss_scaling_with_clock_scale():
    # Sweep the clock scale (omega = 2r, r = 1/n_reset) at fixed probe time
    # and fixed system: the infidelity follows (r*n)^2.
    spec = default_qubit_spec()
    rn_values = np.logspace(-3, -1, 9)
    losses = []
    for rn in rn_values:
        r = float(rn)  # probe at n = 1
        params = validate_clock_params(
            ClockParams(omega=2.0 * r, damping=r, n_reset=1.0 / r, alpha=1.0)
        )
        x = position_expectation(1.0, params)
        losses.append(1.0 - fidelity(evolve_exact(spec, 1.0), evolve_via_clock(spec, x, params)))
    assert 1.6 <= loglog_slope(rn_values, losses) <= 2.4


def test_fidelity_loss_bound_fixed_clock():
    spec = default_qubit_spec()
    params = default_clock()
    h_norm = float(np.linalg.norm(spec.hamiltonian, 2))
    for rn in np.logspace(-3, -0.5, 8):
        n = rn / params.damping
        x = position_expectation(n, params)
        fid = fidelity(evolve_exact(spec, n), evolve_via_clock(spec, x, params))
        assert fid >= 1.0 - FIDELITY_LOSS_PREFACTOR * rn**2 * h_norm**2 * n**2


def test_comparison_table_trivial_generator():
    spec = SystemSpec(
        dim=2,
        hamiltonian=np.zeros((2, 2), dtype=complex),
        initial_state=np.array([1.0, 0.0], dtype=complex),
    )
    table = compare_evolutions(spec, default_clock(), 32)
    assert np.all(table.fidelity == 1.0)
    assert table.worst_fidelity == 1.0


def test_comparison_table_shape_and_origin():
    table = compare_evolutions(default_qubit_spec(), default_clock(), 64)
    columns = (table.n, table.x, table.y, table.state_exact, table.state_clock, table.fidelity)
    assert all(len(column) == 64 for column in columns)
    assert table.n[0] == 0.0
    assert table.fidelity[0] == 1.0
    assert table.y[0] == 0.0
    # fidelity degrades smoothly along the run for the demo qubit
    assert np.all(np.diff(table.fidelity) <= 1e-12)
    assert table.worst_fidelity == table.fidelity.min()
    assert table.worst_fidelity >= WORST_ROW_FIDELITY_FLOOR


def test_comparison_rows_unit_norm():
    table = compare_evolutions(default_qubit_spec(), default_clock(), 32)
    for states in (table.state_exact, table.state_clock):
        assert np.all(np.abs((np.abs(states) ** 2).sum(axis=-1) - 1.0) <= 1e-12)
    assert np.all((0.0 <= table.fidelity) & (table.fidelity <= 1.0 + 1e-12))


