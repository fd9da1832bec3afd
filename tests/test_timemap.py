import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from pwclock import (
    ClockParams,
    OutOfRange,
    ValidationError,
    invert_position,
    linearization_report,
    n_from_x_exact,
    n_from_x_linear,
    n_from_x_log,
    position_expectation,
    timemap,
    validate_clock_params,
)
from pwclock.cli import resolve_config

from calibration import LINEAR_REL_ERR_AT_RN_0_1, LINEAR_REL_ERR_PER_RN
from oracles import loglog_slope, random_invertible_params


def scalar_newton(x: float, params) -> float:
    """Reference: the one-reading Newton loop the array inverter runs for all readings at once."""
    amp, omega, r = params.amplitude, params.damped_frequency, params.damping
    if x == amp:
        return 0.0
    lo, hi = 0.0, params.n_reset
    n = min(float(np.arccos(x / amp)) / omega, hi)
    for _ in range(200):
        envelope = amp * np.exp(-r * n / 2.0)
        cos = np.cos(omega * n)
        f = envelope * cos - x
        slope = -envelope * (0.5 * r * cos + omega * np.sin(omega * n))
        if f > 0.0:
            lo = n
        else:
            hi = n
        step = float(n - f / slope)
        if not (lo < step < hi or abs(step - n) <= 1e-13):
            step = 0.5 * (lo + hi)
        if abs(step - n) <= 1e-13:
            return step
        n = step
    return n


def slope(n: float, params) -> float:
    """d<x>/dn, by the closed form."""
    omega, r = params.damped_frequency, params.damping
    return -params.amplitude * math.exp(-r * n / 2.0) * (
        0.5 * r * math.cos(omega * n) + omega * math.sin(omega * n)
    )


def brentq_root(x: float, params) -> float:
    return brentq(lambda t: position_expectation(t, params) - x, 0.0, params.n_reset, xtol=1e-14)


def assert_root_within_tolerance(n: float, x: float, params) -> None:
    """n is within 1e-13 of brentq's root, or within the reading's own rounding.

    Both roots sit where the rounded <x>(n) - x changes sign, a few ulp(A)
    from zero, so they can differ by that much over the slope.
    """
    reference = brentq_root(x, params)
    rounding = 8.0 * math.ulp(params.amplitude) / abs(slope(reference, params))
    assert abs(n - reference) <= max(1e-13, rounding)


def count_rounds(monkeypatch) -> list[int]:
    """Sizes of the batches the exact inverter evaluates, one entry per round."""
    rounds = []
    value_and_slope = timemap._value_and_slope

    def counted(n, params):
        rounds.append(np.size(n))
        return value_and_slope(n, params)

    monkeypatch.setattr(timemap, "_value_and_slope", counted)
    return rounds


def narrow_window_clock():
    return validate_clock_params(
        ClockParams(omega=1.0, damping=0.1, n_reset=1.5, alpha=1.0).with_amplitude(1.0)
    )


def test_reading_at_amplitude_maps_to_zero():
    params = narrow_window_clock()
    assert n_from_x_exact(params.amplitude, params) == 0.0
    assert n_from_x_log(params.amplitude, params) == 0.0
    assert n_from_x_linear(params.amplitude, params) == 0.0


def test_round_trip_named_example():
    params = narrow_window_clock()
    assert params.damped_frequency == pytest.approx(0.99875, abs=1e-5)
    x = position_expectation(0.5, params)
    assert n_from_x_exact(x, params) == pytest.approx(0.5, abs=1e-12)


def test_round_trip_randomized():
    rng = np.random.default_rng(23)
    for _ in range(100):
        params = random_invertible_params(rng)
        n_true = rng.uniform(0.0, params.n_reset * 0.999)
        x = position_expectation(n_true, params)
        n_found = n_from_x_exact(x, params)
        assert abs(position_expectation(n_found, params) - x) <= 1e-10


def test_later_readings_sit_lower():
    params = narrow_window_clock()
    x1 = position_expectation(0.3, params)
    x2 = position_expectation(0.9, params)
    assert x1 > x2
    assert n_from_x_exact(x1, params) < n_from_x_exact(x2, params)


def test_out_of_range_readings():
    params = narrow_window_clock()
    with pytest.raises(OutOfRange):
        n_from_x_exact(params.amplitude * 1.001, params)
    floor = position_expectation(params.n_reset, params)
    with pytest.raises(OutOfRange):
        n_from_x_exact(floor, params)
    with pytest.raises(OutOfRange):
        n_from_x_exact(floor - 0.01, params)


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    fractions=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=24),
    bad_at=st.integers(0, 23),
    above=st.booleans(),
)
def test_exact_inversion_of_arrays(seed, fractions, bad_at, above):
    # One array call equals the scalar calls and the one-reading Newton loop
    # bit for bit, and scipy's brentq within the stated tolerance; one
    # out-of-window reading fails the whole array, by name.
    params = random_invertible_params(np.random.default_rng(seed))
    x = position_expectation(np.array(fractions) * params.n_reset, params)
    found = n_from_x_exact(x, params)
    assert found.shape == x.shape
    assert np.array_equal(found, [n_from_x_exact(float(v), params) for v in x])
    assert np.array_equal(found, [scalar_newton(v, params) for v in x.tolist()])
    for reading, n in zip(x.tolist(), found.tolist()):
        assert_root_within_tolerance(n, reading, params)

    floor = position_expectation(params.n_reset, params)
    bad = params.amplitude * 1.001 if above else floor
    x = np.insert(x, min(bad_at, x.size), bad)
    with pytest.raises(OutOfRange, match=re.escape(f"x = {bad} ")):
        n_from_x_exact(x, params)


# Clocks at the edges of the Newton iteration.
EDGE_CLOCKS = {
    # Undamped: the starting point arccos(x/A)/Omega is the root.
    "undamped": ClockParams(damping=0.0, n_reset=1.0, alpha=1.0),
    "weak": ClockParams(damping=1e-3, n_reset=1.5, alpha=1.0),
    # Omega * n_reset one part in 1e9 below pi/2, the window's edge.
    "edge_of_window": ClockParams(
        damping=0.1, n_reset=math.pi / 2.0 * (1.0 - 1e-9) / math.sqrt(1.0 - 0.1**2 / 4.0), alpha=1.0
    ),
    # Near critical damping the map is convex, so the first Newton step
    # from the undamped inverse can overshoot below the bracket.
    "heavy": ClockParams(omega=1.0, damping=1.9, n_reset=0.52, alpha=1.0),
}


@pytest.mark.parametrize("name", sorted(EDGE_CLOCKS))
def test_exact_inversion_at_the_edges(name, monkeypatch):
    params = validate_clock_params(EDGE_CLOCKS[name])
    amp = params.amplitude
    floor = position_expectation(params.n_reset, params)
    # One ulp below A, just above the floor, and readings along the window.
    x = np.array(
        [math.nextafter(amp, 0.0), math.nextafter(floor, math.inf)]
        + position_expectation(np.linspace(0.001, 0.999, 64) * params.n_reset, params).tolist()
    )
    rounds = count_rounds(monkeypatch)
    found = n_from_x_exact(x, params)
    assert len(rounds) <= 8
    assert np.array_equal(found, [scalar_newton(v, params) for v in x.tolist()])
    # The reading just above the floor has its root within an ulp of n_reset.
    assert np.all((found > 0.0) & (found <= params.n_reset))
    for reading, n in zip(x.tolist(), found.tolist()):
        assert_root_within_tolerance(n, reading, params)
    if name == "undamped":
        assert len(rounds) == 1
        start = np.arccos(x / amp) / params.damped_frequency
        assert np.max(np.abs(found - start)) <= 1e-13


def test_newton_step_that_leaves_the_bracket_bisects():
    params = validate_clock_params(EDGE_CLOCKS["heavy"])
    x = position_expectation(0.05, params)
    start = min(math.acos(x / params.amplitude) / params.damped_frequency, params.n_reset)
    first = start - (position_expectation(start, params) - x) / slope(start, params)
    assert first < 0.0  # outside the bracket [0, start]: the step bisects instead
    found = n_from_x_exact(x, params)
    assert found == scalar_newton(x, params)
    assert abs(found - 0.05) <= 1e-15


def test_timemap_default_inverts_in_few_rounds(monkeypatch):
    # The timemap experiment's clock at grid 8192: every reading converges
    # within 8 rounds (the bracketing secant loop took about 32), and the
    # round trip recovers each grid time within 1e-13.
    params = resolve_config("timemap").clock
    rounds = count_rounds(monkeypatch)
    table = linearization_report(params, 8192)
    assert len(rounds) <= 8
    grid = np.arange(8192) * (params.n_reset / 8192)
    assert np.max(np.abs(table.n_exact - grid)) <= 1e-13


def test_newton_value_rounds_as_position_expectation():
    # The exact round trip, and x = A -> n = 0, rest on Newton's f(n) being
    # position_expectation(n) to the bit.
    rng = np.random.default_rng(2024)
    clocks = [random_invertible_params(rng) for _ in range(50)]
    grids = [np.linspace(0.0, params.n_reset, 8193) for params in clocks]
    default = resolve_config("timemap").clock  # on linearization_report's grid
    clocks.append(default)
    grids.append(np.arange(8192) * (default.n_reset / 8192))
    for params, n in zip(clocks, grids):
        newton_value, _ = timemap._value_and_slope(n, params)
        assert np.array_equal(newton_value, position_expectation(n, params))


def test_non_monotonic_window_guard():
    params = validate_clock_params(ClockParams(damping=0.1, n_reset=10.0, alpha=1.0))
    assert params.damped_frequency * params.n_reset >= math.pi / 2.0
    with pytest.raises(ValidationError, match=(
        r"^Omega \* n_reset = \S+ >= pi/2; "
        "the position map is not guaranteed invertible on this window$"
    )):
        n_from_x_exact(0.5, params)


def test_linear_inversion_substitution():
    params = narrow_window_clock()
    assert n_from_x_linear(0.99, params) == pytest.approx(0.2, rel=1e-12)


def test_zero_damping_linear_forms():
    params = validate_clock_params(ClockParams(damping=0.0, n_reset=1.0, alpha=1.0))
    with pytest.raises(ValidationError, match="^linear inversion undefined for r = 0$"):
        n_from_x_linear(0.5, params)
    with pytest.raises(ValidationError, match="^log-form inversion undefined for r = 0$"):
        n_from_x_log(0.5, params)
    with pytest.raises(ValidationError, match="^linearization report undefined for r = 0$"):
        linearization_report(params, 16)
    # The exact route stays available for undamped clocks.
    x = position_expectation(0.4, params)
    assert n_from_x_exact(x, params) == pytest.approx(0.4, abs=1e-12)


def test_linear_error_scaling_law():
    params = validate_clock_params(ClockParams(omega=1.0, damping=0.5, n_reset=1.5, alpha=1.0))
    rn_values = np.logspace(-3, -1, 9)
    rel_errors = []
    for rn in rn_values:
        result = invert_position(position_expectation(rn / params.damping, params), params)
        rel_errors.append(result.rel_error_linear)
        assert result.rel_error_linear <= LINEAR_REL_ERR_PER_RN * rn
    assert 0.8 <= loglog_slope(rn_values, rel_errors) <= 1.2


def test_log_form_keeps_larger_error_than_linear_form():
    # Observed ordering on the calibration sweep: the log form overshoots
    # more than the linear form (their truncations partially cancel).
    params = validate_clock_params(ClockParams(omega=1.0, damping=0.5, n_reset=1.5, alpha=1.0))
    for rn in (1e-3, 1e-2, 0.05, 0.1, 0.3, 0.5):
        result = invert_position(position_expectation(rn / params.damping, params), params)
        log_err = abs(result.n_log - result.n_exact)
        lin_err = abs(result.n_linear - result.n_exact)
        assert log_err >= lin_err - 1e-12


def test_report_structure_and_error_growth():
    params = validate_clock_params(
        ClockParams(omega=1.0, damping=2.0 / 3.0, n_reset=1.5, alpha=1.0)
    )
    table = linearization_report(params, 64)
    for column in (table.x, table.y, table.n_exact, table.n_log, table.n_linear):
        assert column.shape == (64,)
    first = (table.n_exact[0], table.n_log[0], table.n_linear[0], table.rel_error_linear[0])
    assert first == (0, 0, 0, 0)
    errors = table.rel_error_linear
    # The relative error grows along the run; at this damping it turns over
    # by ~1e-4 inside the last two percent of the window, so allow that much.
    cutoff = int(len(errors) * 0.95)
    assert np.all(np.diff(errors[:cutoff]) > 0.0)
    assert np.all(np.diff(errors) >= -2e-4)
    within = errors[table.n_exact * params.damping <= 0.1]
    assert within[-1] <= LINEAR_REL_ERR_AT_RN_0_1


def test_report_rejects_tiny_grid():
    params = narrow_window_clock()
    with pytest.raises(ValueError):
        linearization_report(params, 1)


def test_result_fields():
    params = narrow_window_clock()
    x = position_expectation(0.7, params)
    result = invert_position(x, params)
    assert result.x == x
    assert result.y == params.amplitude - x
    assert result.y >= 0.0
    assert 0.0 <= result.n_exact < params.n_reset
    expected_rel = abs(result.n_linear - result.n_exact) / max(result.n_exact, 1e-12)
    assert result.rel_error_linear == expected_rel
