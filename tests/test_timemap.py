import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from pwclock import (
    ClockParams,
    NonMonotonicWindow,
    OutOfRange,
    ZeroDamping,
    invert_position,
    linearization_report,
    n_from_x_exact,
    n_from_x_linear,
    n_from_x_log,
    position_expectation,
    validate_clock_params,
)

from calibration import LINEAR_REL_ERR_AT_RN_0_1, LINEAR_REL_ERR_PER_RN
from oracles import loglog_slope, random_invertible_params


def scalar_secant_bisection(x: float, params) -> float:
    """Reference: the one-reading loop the array inverter runs for all readings at once."""
    amp, lo, hi = params.amplitude, 0.0, params.n_reset
    floor = position_expectation(hi, params)
    if x == amp:
        return 0.0
    f_lo, f_hi = amp - x, floor - x
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        span = hi - lo
        cand = lo - f_lo * span / (f_hi - f_lo)
        if not lo < cand < hi:
            cand = 0.5 * (lo + hi)
        f_cand = position_expectation(cand, params) - x
        if f_cand == 0.0:
            return cand
        if f_cand > 0.0:
            lo, f_lo = cand, f_cand
        else:
            hi, f_hi = cand, f_cand
        if hi - lo > 0.5 * span:
            mid = 0.5 * (lo + hi)
            f_mid = position_expectation(mid, params) - x
            if f_mid == 0.0:
                return mid
            if f_mid > 0.0:
                lo, f_lo = mid, f_mid
            else:
                hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    fractions=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=24),
    bad_at=st.integers(0, 23),
    above=st.booleans(),
)
def test_exact_inversion_of_arrays(seed, fractions, bad_at, above):
    # One array call equals the scalar calls and the one-reading loop bit for
    # bit, and scipy's brentq within 1e-10; one out-of-window reading fails
    # the whole array, by name.
    params = random_invertible_params(np.random.default_rng(seed))
    x = position_expectation(np.array(fractions) * params.n_reset, params)
    found = n_from_x_exact(x, params)
    assert found.shape == x.shape
    assert np.array_equal(found, [n_from_x_exact(float(v), params) for v in x])
    assert np.array_equal(found, [scalar_secant_bisection(v, params) for v in x.tolist()])
    for reading, n in zip(x.tolist(), found.tolist()):
        reference = brentq(
            lambda t: position_expectation(t, params) - reading,
            0.0,
            params.n_reset,
            xtol=1e-14,
        )
        assert abs(n - reference) <= 1e-10

    floor = position_expectation(params.n_reset, params)
    bad = params.amplitude * 1.001 if above else floor
    x = np.insert(x, min(bad_at, x.size), bad)
    with pytest.raises(OutOfRange, match=re.escape(f"x = {bad} ")):
        n_from_x_exact(x, params)


def test_non_monotonic_window_guard():
    params = validate_clock_params(ClockParams(damping=0.1, n_reset=10.0, alpha=1.0))
    assert params.damped_frequency * params.n_reset >= math.pi / 2.0
    with pytest.raises(NonMonotonicWindow):
        n_from_x_exact(0.5, params)


def test_linear_inversion_substitution():
    params = narrow_window_clock()
    assert n_from_x_linear(0.99, params) == pytest.approx(0.2, rel=1e-12)


def test_zero_damping_linear_forms():
    params = validate_clock_params(ClockParams(damping=0.0, n_reset=1.0, alpha=1.0))
    with pytest.raises(ZeroDamping):
        n_from_x_linear(0.5, params)
    with pytest.raises(ZeroDamping):
        n_from_x_log(0.5, params)
    with pytest.raises(ZeroDamping):
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
