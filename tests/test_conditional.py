import dataclasses
import math

import numpy as np
import pytest

from pwclock import conditional
from pwclock import (
    ClockParams,
    DegenerateSupport,
    InvalidAbstractTime,
    NotAProjector,
    OutOfRange,
    SystemSpec,
    build_history_state,
    coherent_overlap,
    conditional_system_probability,
    default_qubit_spec,
    ideal_limit_concentration,
    n_from_x_exact,
    position_expectation,
    position_given_n,
    posterior_over_n,
    validate_clock_params,
    wavefunction,
    width,
)

from calibration import (
    IDEAL_LIMIT_CROSSING_SCALE,
    IDEAL_LIMIT_SCALES,
    IDEAL_LIMIT_WINDOW,
    NARROW_AMPLITUDE,
    NARROW_DAMPING,
    NARROW_N_RESET,
    NARROW_OMEGA,
    NARROW_PROBE_TIME,
)
from oracles import expm_state, quadrature_overlap, random_clock_params, random_probe_time


def narrow_clock(mass_omega: float = 10000.0) -> ClockParams:
    base = ClockParams(
        omega=NARROW_OMEGA,
        damping=NARROW_DAMPING,
        n_reset=NARROW_N_RESET,
        mass=mass_omega / NARROW_OMEGA,
    ).with_amplitude(NARROW_AMPLITUDE)
    return validate_clock_params(base)


PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
PROJECTOR_PLUS = np.outer(PLUS, PLUS.conj())
PROJECTOR_MINUS = np.eye(2, dtype=complex) - PROJECTOR_PLUS


@pytest.fixture(scope="module")
def history():
    return build_history_state(default_qubit_spec(), narrow_clock(), 2048)


def test_position_density_peak_and_one_sigma():
    params = validate_clock_params(ClockParams(damping=0.5, alpha=1.0, n_reset=2.0))
    n = 0.7
    mean = position_expectation(n, params)
    delta = width(n, params)
    peak = position_given_n(mean, n, params)
    assert peak == pytest.approx(1.0 / (delta * math.sqrt(2.0 * math.pi)), rel=1e-12)
    assert position_given_n(mean + delta, n, params) == pytest.approx(
        peak * math.exp(-0.5), rel=1e-12
    )
    assert position_given_n(mean - delta, n, params) == pytest.approx(
        peak * math.exp(-0.5), rel=1e-12
    )


def test_position_density_normalized_over_x():
    rng = np.random.default_rng(17)
    for _ in range(10):
        params = random_clock_params(rng)
        n = random_probe_time(rng, params)
        mean = position_expectation(n, params)
        delta = width(n, params)
        xs = np.linspace(mean - 12.0 * delta, mean + 12.0 * delta, 20001)
        assert np.trapezoid(position_given_n(xs, n, params), xs) == pytest.approx(1.0, abs=1e-8)


def test_posterior_is_normalized_and_keeps_raw_integral():
    params = validate_clock_params(ClockParams(damping=0.5, alpha=1.0, n_reset=2.0))
    x = position_expectation(1.0, params)
    posterior = posterior_over_n(x, params, 2048)
    assert np.trapezoid(posterior.density, posterior.grid) == pytest.approx(1.0, abs=1e-9)
    assert np.all(posterior.density >= 0.0)
    assert posterior.norm_raw > 0.0
    # density * norm_raw reproduces the literal unnormalized values
    raw = position_given_n(x, posterior.grid, params)
    np.testing.assert_allclose(posterior.density * posterior.norm_raw, raw, rtol=1e-12)


def test_posterior_bound_is_min_of_horizon_and_inverse_damping():
    saturated = validate_clock_params(ClockParams(damping=0.5, n_reset=2.0, alpha=1.0))
    assert posterior_over_n(1.0, saturated, 64).grid[-1] == 2.0
    slack = validate_clock_params(ClockParams(damping=0.5, n_reset=1.0, alpha=1.0))
    assert posterior_over_n(1.0, slack, 64).grid[-1] == 1.0
    undamped = validate_clock_params(ClockParams(damping=0.0, n_reset=1.2, alpha=1.0))
    assert posterior_over_n(1.0, undamped, 64).grid[-1] == 1.2
    explicit = posterior_over_n(1.0, saturated, 64, n_max=0.7)
    assert explicit.grid[-1] == 0.7


def test_posterior_mode_at_start_for_amplitude_reading():
    params = narrow_clock()
    posterior = posterior_over_n(params.amplitude, params, 256)
    assert int(np.argmax(posterior.density)) == 0


def test_posterior_mode_tracks_recovered_time():
    params = narrow_clock()
    x = position_expectation(0.5, params)
    posterior = posterior_over_n(x, params, 2048)
    step = posterior.grid[1] - posterior.grid[0]
    mode = posterior.grid[int(np.argmax(posterior.density))]
    assert abs(mode - n_from_x_exact(x, params)) <= step


def test_posterior_refinement():
    params = validate_clock_params(ClockParams(damping=0.5, alpha=1.0, n_reset=2.0))
    x = position_expectation(1.0, params)
    coarse = posterior_over_n(x, params, 2048).norm_raw
    fine = posterior_over_n(x, params, 4096).norm_raw
    assert abs(fine - coarse) / coarse <= 1e-6


def test_posterior_unreachable_reading():
    params = narrow_clock()
    with pytest.raises(DegenerateSupport):
        posterior_over_n(50.0, params, 256)


def test_concentration_total_mass():
    params = narrow_clock()
    x = position_expectation(NARROW_PROBE_TIME, params)
    assert ideal_limit_concentration(x, params, window=10.0) == pytest.approx(1.0, abs=1e-12)


def test_concentration_ladder_monotone_and_crosses():
    fractions = []
    for scale in IDEAL_LIMIT_SCALES:
        params = narrow_clock(scale)
        x = position_expectation(NARROW_PROBE_TIME, params)
        fractions.append(ideal_limit_concentration(x, params, IDEAL_LIMIT_WINDOW))
    assert all(b > a for a, b in zip(fractions, fractions[1:]))
    assert fractions[IDEAL_LIMIT_SCALES.index(IDEAL_LIMIT_CROSSING_SCALE)] >= 0.99


def test_concentration_support_mismatch():
    # Reading below the attainable window: the envelope inversion places the
    # window far outside the integration range.
    params = narrow_clock()
    assert position_expectation(params.n_reset, params) > 0.05
    fraction = ideal_limit_concentration(0.05, params, IDEAL_LIMIT_WINDOW)
    assert fraction <= 1e-6


def test_concentration_rejects_overshoot_reading():
    params = narrow_clock()
    with pytest.raises(OutOfRange):
        ideal_limit_concentration(params.amplitude * 1.01, params, 0.05)


def test_coherent_overlap_against_quadrature():
    rng = np.random.default_rng(29)
    for _ in range(5):
        params = random_clock_params(rng)
        n_a = random_probe_time(rng, params)
        n_b = random_probe_time(rng, params)
        closed = coherent_overlap(n_a, n_b, params)
        quad = quadrature_overlap(params, n_a, n_b)
        assert quad.imag == pytest.approx(0.0, abs=1e-12)
        assert closed == pytest.approx(quad.real, abs=1e-10)
    assert coherent_overlap(0.8, 0.8, random_clock_params(rng)) == pytest.approx(1.0, rel=1e-14)


def test_history_state_trivial_generator():
    dim = 3
    spec = SystemSpec(
        dim=dim,
        hamiltonian=np.zeros((dim, dim), dtype=complex),
        initial_state=np.array([1.0, 0.0, 0.0], dtype=complex),
    )
    hist = build_history_state(spec, narrow_clock(), 32)
    np.testing.assert_array_equal(hist.sys_states, np.tile(spec.initial_state, (32, 1)))


def test_history_state_slice_norms():
    hist = build_history_state(default_qubit_spec(), narrow_clock(), 64)
    norms = np.linalg.norm(hist.sys_states, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_history_state_unit_joint_norm():
    params = validate_clock_params(ClockParams(damping=0.5, alpha=1.0, n_reset=2.0))
    hist = build_history_state(default_qubit_spec(), params, 48)

    # Independent dense Gram oracle: clock overlaps by quadrature over x.
    xs = np.linspace(-12.0, 12.0, 20001)
    profiles = np.array([wavefunction(xs, n, params) for n in hist.grid])
    dx = xs[1] - xs[0]
    quad_weights = np.full(xs.size, dx)
    quad_weights[0] = quad_weights[-1] = dx / 2.0
    clock_gram = (profiles.conj() * quad_weights) @ profiles.T
    system_gram = hist.sys_states.conj() @ hist.sys_states.T
    scaled = hist.weights / hist.norm
    joint = np.real(scaled @ ((clock_gram * system_gram) @ scaled))
    assert joint == pytest.approx(1.0, abs=1e-9)


def test_history_state_rejects_tiny_grid():
    with pytest.raises(ValueError):
        build_history_state(default_qubit_spec(), narrow_clock(), 8)


def test_conditional_probability_identity_and_zero(history):
    x = position_expectation(0.5, history.clock_params)
    assert conditional_system_probability(history, x, np.eye(2, dtype=complex)) == 1.0
    assert conditional_system_probability(history, x, np.zeros((2, 2), dtype=complex)) == 0.0


def test_conditional_probability_complement_sum(history):
    for n in (0.4, 0.7, 1.1):
        x = position_expectation(n, history.clock_params)
        total = conditional_system_probability(
            history, x, PROJECTOR_PLUS
        ) + conditional_system_probability(history, x, PROJECTOR_MINUS)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_conditional_probability_matches_schroedinger(history):
    spec = default_qubit_spec()
    for n in (0.4, 0.6, 0.9, 1.2):
        x = position_expectation(n, history.clock_params)
        evolved = expm_state(spec, n_from_x_exact(x, history.clock_params))
        expected_plus = abs(np.vdot(PLUS, evolved)) ** 2
        got = conditional_system_probability(history, x, PROJECTOR_PLUS)
        assert got == pytest.approx(expected_plus, abs=1e-3)


def test_conditional_probability_grid_convergence(history):
    finer = build_history_state(default_qubit_spec(), history.clock_params, 4096)
    x = position_expectation(0.5, history.clock_params)
    coarse_p = conditional_system_probability(history, x, PROJECTOR_PLUS)
    fine_p = conditional_system_probability(finer, x, PROJECTOR_PLUS)
    assert abs(fine_p - coarse_p) <= 1e-6


def test_conditional_probability_is_dynamical(history):
    # Distinct readings whose evolved states differ must give distinct
    # conditional probabilities.
    x1 = position_expectation(0.3, history.clock_params)
    x2 = position_expectation(0.8, history.clock_params)
    p1 = conditional_system_probability(history, x1, PROJECTOR_PLUS)
    p2 = conditional_system_probability(history, x2, PROJECTOR_PLUS)
    assert abs(p1 - p2) > 0.05


def test_conditional_probability_rejects_bad_projectors(history, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("amplitudes computed before the projector checks")

    monkeypatch.setattr(conditional, "wavefunction", forbidden)
    x = position_expectation(0.5, history.clock_params)
    for readings in (x, np.full(4, x)):
        with pytest.raises(NotAProjector):
            conditional_system_probability(history, readings, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotAProjector):
            conditional_system_probability(history, readings, 0.5 * np.eye(2))
        with pytest.raises(NotAProjector):
            conditional_system_probability(history, readings, np.eye(3))


def test_conditional_probability_unreachable_reading(history):
    with pytest.raises(DegenerateSupport):
        conditional_system_probability(history, 80.0, PROJECTOR_PLUS)
    # One unreachable reading fails the whole batch, and the message names it.
    xs = np.array([position_expectation(n, history.clock_params) for n in (0.4, 0.7)] + [80.0])
    with pytest.raises(DegenerateSupport, match="x = 80.0"):
        conditional_system_probability(history, xs, PROJECTOR_PLUS)


def test_weights_are_trapezoid(history):
    step = history.grid[1] - history.grid[0]
    assert history.weights[0] == step / 2.0
    assert history.weights[-1] == step / 2.0
    assert np.all(history.weights[1:-1] == step)
    assert history.grid[0] == 0.0
    assert history.grid[-1] == history.clock_params.n_reset


def test_history_build_computes_no_clock_overlaps(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("clock overlaps evaluated")

    params = narrow_clock()
    with monkeypatch.context() as patch:
        patch.setattr(conditional, "coherent_overlap", forbidden)
        hist = build_history_state(default_qubit_spec(), params, 256)
        x = position_expectation(0.5, params)
        assert 0.0 < conditional_system_probability(hist, x, PROJECTOR_PLUS) < 1.0
        assert "norm" not in vars(hist)
    expected = math.sqrt(
        conditional._joint_quadratic_form(hist.grid, hist.weights, hist.sys_states, params)
    )
    assert hist.norm == expected
    assert vars(hist)["norm"] == expected  # cached after the first access


def test_conditional_probability_array_matches_scalar(history):
    rng = np.random.default_rng(41)
    times = rng.uniform(0.05, 0.95, 64) * history.clock_params.n_reset
    xs = np.array([position_expectation(float(n), history.clock_params) for n in times])
    for projector in (PROJECTOR_PLUS, PROJECTOR_MINUS, np.eye(2, dtype=complex)):
        batch = conditional_system_probability(history, xs, projector)
        assert batch.shape == xs.shape
        scalars = [conditional_system_probability(history, float(x), projector) for x in xs]
        assert all(type(p) is float for p in scalars)
        assert np.array_equal(batch, np.array(scalars))
        grid_shaped = conditional_system_probability(history, xs.reshape(8, 8), projector)
        assert np.array_equal(grid_shaped, batch.reshape(8, 8))


def test_conditional_probability_batch_spans_blocks(history, monkeypatch):
    xs = np.array([position_expectation(n, history.clock_params) for n in (0.3, 0.6, 0.9, 1.2, 1.4)])
    whole = conditional_system_probability(history, xs, PROJECTOR_PLUS)
    monkeypatch.setattr(conditional, "_BLOCK_ROWS", 2)
    assert np.array_equal(conditional_system_probability(history, xs, PROJECTOR_PLUS), whole)


def test_conditional_probability_rejects_grid_outside_window(history):
    shorter = dataclasses.replace(history.clock_params, n_reset=history.clock_params.n_reset / 2)
    outside = dataclasses.replace(history, clock_params=shorter)
    with pytest.raises(InvalidAbstractTime):
        conditional_system_probability(outside, np.array([0.5, 0.6]), PROJECTOR_PLUS)
