import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwclock import conditional
from pwclock.clock import _envelope
from pwclock.evolution import _inner
from pwclock import (
    ClockParams,
    NumericalError,
    OutOfRange,
    SystemSpec,
    ValidationError,
    build_history_state,
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
from oracles import (
    coherent_overlap,
    expm_state,
    full_range_conditional,
    quadrature_overlap,
    random_clock_params,
    random_probe_time,
)


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
PROJECTORS = {
    "plus": PROJECTOR_PLUS,
    "minus": PROJECTOR_MINUS,
    "identity": np.eye(2, dtype=complex),
    "zero": np.zeros((2, 2), dtype=complex),
}


def record_amplitude_calls(monkeypatch):
    """Patch the clock envelope pass seen by conditioning to record each
    call's (reading, grid points), and require every band to be float64."""
    calls = []

    def recording(x, terms, out=None):
        out = _envelope(x, terms, out)
        assert out.dtype == np.float64 and out.ndim == 1
        calls.append((x, out.size))
        return out

    monkeypatch.setattr(conditional, "_envelope", recording)
    return calls


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
    unreachable = r"^reading x = 50\.0 is unreachable: unnormalized integral 0\.0$"
    with pytest.raises(NumericalError, match=unreachable):
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


@pytest.mark.parametrize("window", [math.nan, -1.0, 0.0, math.inf, -math.inf])
def test_concentration_rejects_a_window_that_is_not_finite_and_positive(window):
    params = narrow_clock()
    x = position_expectation(NARROW_PROBE_TIME, params)
    with pytest.raises(ValidationError, match=f"^window must be a finite number > 0, got {window}$"):
        ideal_limit_concentration(x, params, window)


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
    # The state is stored unnormalized; scaled by its closed-form norm (clock
    # overlaps in closed form), it must have unit norm under an independent
    # dense Gram whose clock overlaps come from quadrature over x.
    params = validate_clock_params(ClockParams(damping=0.5, alpha=1.0, n_reset=2.0))
    hist = build_history_state(default_qubit_spec(), params, 48)
    system_gram = hist.sys_states.conj() @ hist.sys_states.T

    closed_gram = coherent_overlap(hist.grid[:, None], hist.grid[None, :], params)
    norm = math.sqrt(np.real(hist.weights @ ((closed_gram * system_gram) @ hist.weights)))

    xs = np.linspace(-12.0, 12.0, 20001)
    profiles = np.array([wavefunction(xs, n, params) for n in hist.grid])
    dx = xs[1] - xs[0]
    quad_weights = np.full(xs.size, dx)
    quad_weights[0] = quad_weights[-1] = dx / 2.0
    clock_gram = (profiles.conj() * quad_weights) @ profiles.T
    scaled = hist.weights / norm
    joint = np.real(scaled @ ((clock_gram * system_gram) @ scaled))
    assert joint == pytest.approx(1.0, abs=1e-9)


def test_history_state_completeness_identity():
    # Integrating <v(x)|v(x)> over every reading x must give the state's
    # squared norm sum_{j,k} w_j w_k <clock_j|clock_k> <sys_j|sys_k>, since
    # the position basis is complete. v(x) is built as conditioning builds
    # it; the clock overlaps come from the independent closed form.
    params = validate_clock_params(ClockParams(damping=0.5, alpha=1.0, n_reset=2.0))
    hist = build_history_state(default_qubit_spec(), params, 48)

    xs = np.linspace(-12.0, 12.0, 20001)
    conditioned = (hist.weights * wavefunction(xs[:, None], hist.grid, params)) @ hist.sys_states
    integral = np.trapezoid(np.sum(np.abs(conditioned) ** 2, axis=1), xs)

    clock_gram = coherent_overlap(hist.grid[:, None], hist.grid[None, :], params)
    system_gram = hist.sys_states.conj() @ hist.sys_states.T
    closed = np.real(hist.weights @ ((clock_gram * system_gram) @ hist.weights))
    assert integral == pytest.approx(closed, abs=1e-9)


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


NOT_A_PROJECTOR = "^{} is not (Hermitian|idempotent) within 1e-10$"
WRONG_SHAPE = r"^projector shape \(.*\) does not match the system$"


def test_conditional_probability_rejects_bad_projectors(history, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("amplitudes computed before the projector checks")

    def with_diagonal(value):
        matrix = PROJECTOR_PLUS.copy()
        matrix[0, 0] = value
        return matrix

    monkeypatch.setattr(conditional, "_envelope", forbidden)
    x = position_expectation(0.5, history.clock_params)
    # A non-finite entry makes the deviations NaN, which must fail the checks too.
    non_finite = [np.full((2, 2), math.nan)] + [with_diagonal(v) for v in (math.nan, math.inf, -math.inf)]
    for readings in (x, np.full(4, x)):
        for bad in [np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5 * np.eye(2)] + non_finite:
            with pytest.raises(ValidationError, match=NOT_A_PROJECTOR.format("projector")):
                conditional_system_probability(history, readings, bad)
            # In a stack, the message names the failing index.
            stack = np.stack([PROJECTOR_PLUS, bad, PROJECTOR_MINUS])
            with pytest.raises(ValidationError, match=NOT_A_PROJECTOR.format("projector 1")):
                conditional_system_probability(history, readings, stack)
        for wrong_shape in (np.eye(3), np.stack([np.eye(3)] * 2), np.ones((1, 1, 2, 2)), np.ones(2)):
            with pytest.raises(ValidationError, match=WRONG_SHAPE):
                conditional_system_probability(history, readings, wrong_shape)


def test_conditional_probability_unreachable_reading(history):
    unreachable = "^reading x = {} is unreachable: conditioning weight "
    with pytest.raises(NumericalError, match=unreachable.format(r"80\.0") + r"0\.0$"):
        conditional_system_probability(history, 80.0, PROJECTOR_PLUS)
    # One unreachable reading fails the whole batch, and the message names it.
    xs = np.array([position_expectation(n, history.clock_params) for n in (0.4, 0.7)] + [80.0])
    with pytest.raises(NumericalError, match=unreachable.format(r"80\.0")):
        conditional_system_probability(history, xs, PROJECTOR_PLUS)


def test_non_finite_readings_stop_at_the_door(history, monkeypatch):
    # A NaN or infinite reading has no conditional state: it is bad input,
    # refused by name before any envelope is evaluated, not an unreachable one.
    finite = position_expectation(np.array([0.4, 0.7]), history.clock_params)
    calls = record_amplitude_calls(monkeypatch)
    for reading in (math.nan, math.inf, -math.inf):
        message = f"^x must be finite, got {reading}$"
        for x in (reading, np.array([reading]), np.append(finite, [reading, math.nan])):
            with pytest.raises(ValidationError, match=message):
                conditional_system_probability(history, x, PROJECTOR_PLUS)
    assert calls == []


def perturbed_inner(monkeypatch, offsets):
    """Patch the inner product seen by conditioning so that each <v|P_j|v>
    at (projector j, reading i) in ``offsets`` gains offset * <v|v>: the
    conditional value there moves by exactly that offset, to rounding."""
    def perturbed(a, b):
        out = _inner(a, b)
        if out.ndim == 2:
            weights = _inner(a, a).real
            for (j, i), offset in offsets.items():
                out[j, i] += offset * weights[i]
        return out

    monkeypatch.setattr(conditional, "_inner", perturbed)


@pytest.mark.parametrize(
    "unit, pattern",
    [(0.25j, r"imaginary residue 0\.25\d* exceeds 1e-9 at reading x = {x};"),
     (2.0, r"conditional probability 2\.\d+ at reading x = {x} outside \[0, 1\] tolerance")],
)
def test_conditioning_checks_name_the_first_reading_across_a_stack(history, monkeypatch, unit, pattern):
    # Projector 1 fails at reading 1 and projector 0 at reading 2: in
    # reading order the first offender is reading 1, though projector 0 comes first.
    xs = position_expectation(np.array([0.3, 0.5, 0.7]), history.clock_params)
    stack = np.stack([PROJECTOR_PLUS, PROJECTOR_MINUS])
    perturbed_inner(monkeypatch, {(1, 1): unit, (0, 2): 2 * unit})
    with pytest.raises(NumericalError, match=pattern.format(x=re.escape(repr(float(xs[1]))))):
        conditional_system_probability(history, xs, stack)
    # A single projector names the reading it fails at.
    perturbed_inner(monkeypatch, {(0, 2): unit})
    with pytest.raises(NumericalError, match=pattern.format(x=re.escape(repr(float(xs[2]))))):
        conditional_system_probability(history, xs, PROJECTOR_PLUS)


def test_weights_are_trapezoid(history):
    step = history.grid[1] - history.grid[0]
    assert history.weights[0] == step / 2.0
    assert history.weights[-1] == step / 2.0
    assert np.all(history.weights[1:-1] == step)
    assert history.grid[0] == 0.0
    assert history.grid[-1] == history.clock_params.n_reset


def test_history_build_computes_no_clock_amplitudes(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("clock amplitudes evaluated")

    params = narrow_clock()
    with monkeypatch.context() as patch:
        patch.setattr(conditional, "_envelope", forbidden)
        hist = build_history_state(default_qubit_spec(), params, 256)
    x = position_expectation(0.5, params)
    assert 0.0 < conditional_system_probability(hist, x, PROJECTOR_PLUS) < 1.0


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


@settings(max_examples=30)
@given(
    fractions=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=6),
    names=st.lists(st.sampled_from(sorted(PROJECTORS)), min_size=1, max_size=5),
)
def test_projector_stack_matches_single_calls(history, fractions, names):
    xs = position_expectation(np.array(fractions) * history.clock_params.n_reset, history.clock_params)
    stack = np.stack([PROJECTORS[name] for name in names])
    stacked = conditional_system_probability(history, xs, stack)
    assert stacked.shape == (len(names),) + xs.shape
    at_first = conditional_system_probability(history, float(xs[0]), stack)
    assert at_first.shape == (len(names),)
    for row, first, name in zip(stacked, at_first, names):
        assert np.array_equal(row, conditional_system_probability(history, xs, PROJECTORS[name]))
        assert first == conditional_system_probability(history, float(xs[0]), PROJECTORS[name])


@pytest.mark.parametrize("names", [None, ("plus",), ("plus", "minus"), tuple(sorted(PROJECTORS))])
def test_conditioning_computes_amplitudes_once_per_reading_band(history, monkeypatch, names):
    # 257 readings over [0.05, 0.95] * n_reset at K = 2048. Each evaluates
    # exactly its band, once and in reading order: 257 calls and 114,255
    # amplitudes, against 526,336 for the whole grid.
    projector = PROJECTOR_PLUS if names is None else np.stack([PROJECTORS[n] for n in names])
    times = np.linspace(0.05, 0.95, 257) * history.clock_params.n_reset
    xs = position_expectation(times, history.clock_params)
    lo, hi = conditional._reading_bands(history, xs, position_expectation(history.grid, history.clock_params))
    calls = record_amplitude_calls(monkeypatch)
    conditional_system_probability(history, xs, projector)
    assert calls == list(zip(xs.tolist(), (hi - lo).tolist()))
    assert sum(size for _, size in calls) == 114_255


def test_empty_readings_evaluate_no_amplitude(history, monkeypatch):
    calls = record_amplitude_calls(monkeypatch)
    stack = np.stack([PROJECTOR_PLUS, PROJECTOR_MINUS, np.eye(2, dtype=complex)])
    for shape in ((0,), (0, 3)):
        x = np.empty(shape)
        single = conditional_system_probability(history, x, PROJECTOR_PLUS)
        assert single.shape == shape and single.dtype == np.float64
        assert conditional_system_probability(history, x, stack).shape == (3,) + shape
    assert calls == []


def test_bands_drop_only_terms_below_the_bound(history):
    # Every term of v left out of a reading's band is below 2^-53 / K of the
    # band's largest term, so all of them together are below 2^-53 of it.
    clock = history.clock_params
    xs = np.concatenate([
        position_expectation(np.linspace(0.0, 1.0, 41) * clock.n_reset, clock),
        [clock.amplitude + 20.0 * width(0.0, clock)],  # beyond every mean: the band widens
    ])
    lo, hi = conditional._reading_bands(history, xs, position_expectation(history.grid, clock))
    terms = np.abs(history.weights * wavefunction(xs[:, None], history.grid, clock))
    size = history.grid.size
    for row, first, last in zip(terms, lo, hi):
        assert 0 <= first < last <= size
        dropped = np.concatenate([row[:first], row[last:]])
        assert np.sum(dropped) <= 2.0**-53 * np.max(row[first:last])
        assert np.argmax(row) in range(first, last)
    assert np.sum(hi - lo) < 0.3 * size * xs.size


@st.composite
def monotone_histories(draw):
    """A history state on a drawn clock whose mean falls monotonically
    (Omega * n_reset < pi/2), with m*omega from 1e3 to 1e6 and amplitude 1."""
    mass_omega = 10.0 ** draw(st.floats(3.0, 6.0))
    omega = draw(st.floats(0.5, 2.0))
    damping = draw(st.floats(0.0, 0.5)) * omega
    params = ClockParams(omega=omega, damping=damping, mass=mass_omega / omega, n_reset=1.0)
    damped = math.sqrt(omega**2 - damping**2 / 4.0)
    limit = min(0.99 * (math.pi / 2.0) / damped, 1.0 / damping if damping else math.inf)
    n_reset = draw(st.floats(0.2, 1.0)) * limit
    clock = validate_clock_params(dataclasses.replace(params, n_reset=n_reset).with_amplitude(1.0))
    grid_size = draw(st.sampled_from([256, 1024, 4096]))
    return build_history_state(default_qubit_spec(), clock, grid_size)


@settings(max_examples=40)
@given(
    history=monotone_histories(),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    offsets=st.lists(st.floats(-6.0, 6.0), min_size=8, max_size=8),
)
def test_banded_conditioning_matches_the_full_range(history, fractions, offsets):
    clock = history.clock_params
    times = np.array(fractions) * clock.n_reset
    xs = position_expectation(times, clock) + np.array(offsets[: times.size]) * width(times, clock)
    for projector in (PROJECTOR_PLUS, PROJECTOR_MINUS):
        banded = conditional_system_probability(history, xs, projector)
        assert np.max(np.abs(banded - full_range_conditional(history, xs, projector))) <= 4e-16


FULL_BAND_CLOCKS = {
    # Narrow, but its mean turns back (Omega * n_reset = 5.99 > pi): no band.
    "turning": ClockParams(omega=1.0, damping=0.1, n_reset=6.0, mass=1e4).with_amplitude(1.0),
    # The base clock: its mean falls over [0, 2], but its width (0.71)
    # reaches across the whole range of means, so every band is the grid.
    "base": ClockParams(damping=0.5, alpha=1.0, n_reset=2.0),
}


@pytest.mark.parametrize("clock", list(FULL_BAND_CLOCKS.values()), ids=list(FULL_BAND_CLOCKS))
def test_full_bands_condition_on_the_whole_grid(monkeypatch, clock):
    # Every band is the whole grid: each of 300 readings at K = 2048
    # evaluates one full row, and every value equals the full-range sum bit
    # for bit.
    clock = validate_clock_params(clock)
    hist = build_history_state(default_qubit_spec(), clock, 2048)
    xs = position_expectation(np.linspace(0.05, 0.95, 300) * clock.n_reset, clock)
    calls = record_amplitude_calls(monkeypatch)
    for projector in (PROJECTOR_PLUS, PROJECTOR_MINUS):
        got = conditional_system_probability(hist, xs, projector)
        assert np.array_equal(got, full_range_conditional(hist, xs, projector))
    assert calls == [(x, 2048) for x in xs.tolist()] * 2


@pytest.mark.parametrize("clock", list(FULL_BAND_CLOCKS.values()), ids=list(FULL_BAND_CLOCKS))
def test_full_bands_at_a_phase_agree_with_the_complex_oracle(clock):
    # The oracle multiplies e^{1.3i} into every complex amplitude, where it
    # rounds; conditioning never multiplies it in. They agree to rounding.
    clock = validate_clock_params(dataclasses.replace(clock, phase=1.3))
    hist = build_history_state(default_qubit_spec(), clock, 2048)
    xs = position_expectation(np.linspace(0.05, 0.95, 300) * clock.n_reset, clock)
    for projector in (PROJECTOR_PLUS, PROJECTOR_MINUS):
        got = conditional_system_probability(hist, xs, projector)
        assert np.max(np.abs(got - full_range_conditional(hist, xs, projector))) <= 1e-14


@settings(max_examples=30)
@given(
    phase=st.floats(-math.pi, math.pi),
    clock=st.sampled_from([narrow_clock()] + [validate_clock_params(c) for c in FULL_BAND_CLOCKS.values()]),
)
def test_global_phase_cancels_exactly(phase, clock):
    # The phase multiplies every term of v and every amplitude, so it cancels
    # from <v|P|v> / <v|v> and from |amplitude|^2; neither ever forms it.
    shifted = validate_clock_params(dataclasses.replace(clock, phase=phase))
    at_zero = build_history_state(default_qubit_spec(), clock, 512)
    at_phase = build_history_state(default_qubit_spec(), shifted, 512)
    xs = position_expectation(np.linspace(0.05, 0.95, 9) * clock.n_reset, clock)
    for projector in (PROJECTOR_PLUS, np.stack([PROJECTOR_PLUS, PROJECTOR_MINUS])):
        assert np.array_equal(
            conditional_system_probability(at_phase, xs, projector),
            conditional_system_probability(at_zero, xs, projector),
        )
    assert np.array_equal(
        position_given_n(xs[:, None], at_zero.grid, shifted),
        position_given_n(xs[:, None], at_zero.grid, clock),
    )


OUTSIDE_WINDOW = r"^n = \S+ outside the running window \[0, \S+\]$"


def test_conditional_probability_rejects_grid_outside_window(history):
    shorter = dataclasses.replace(history.clock_params, n_reset=history.clock_params.n_reset / 2)
    outside = dataclasses.replace(history, clock_params=shorter)
    with pytest.raises(ValidationError, match=OUTSIDE_WINDOW):
        conditional_system_probability(outside, np.array([0.5, 0.6]), PROJECTOR_PLUS)
    # Only the last grid point leaves the window, and no band reaches it:
    # the whole grid is still checked.
    last_out = dataclasses.replace(history.clock_params, n_reset=history.grid[-2])
    clipped = dataclasses.replace(history, clock_params=last_out)
    near_start = position_expectation(0.1, history.clock_params)
    mean = position_expectation(history.grid, last_out)
    assert conditional._reading_bands(clipped, np.array([near_start]), mean)[1][0] < history.grid.size
    with pytest.raises(ValidationError, match=OUTSIDE_WINDOW):
        conditional_system_probability(clipped, near_start, PROJECTOR_PLUS)
