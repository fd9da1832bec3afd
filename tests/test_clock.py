import math
import re
from dataclasses import replace

import numpy as np
import pytest

from pwclock import (
    ClockParams,
    ValidationError,
    damping_stationary_point,
    decoherence_rate,
    position_expectation,
    recommend_damping,
    validate_clock_params,
    wavefunction,
    width,
)

from oracles import (
    central_difference,
    quadrature_moments,
    random_clock_params,
    random_probe_time,
    second_difference,
)


def test_unit_gaussian_peak():
    # Centered unit-width packet: peak density 1/sqrt(pi).
    params = ClockParams(alpha=0.0, n_reset=1.0)
    assert abs(wavefunction(0.0, 0.0, params)) ** 2 == pytest.approx(
        1.0 / math.sqrt(math.pi), rel=1e-12
    )


def test_peak_density_at_mean():
    params = validate_clock_params(ClockParams(damping=0.5, alpha=1.0, n_reset=2.0))
    delta = math.sqrt(0.5)
    peak = abs(wavefunction(params.amplitude, 0.0, params)) ** 2
    assert peak == pytest.approx(1.0 / (delta * math.sqrt(2.0 * math.pi)), rel=1e-12)


def test_wavefunction_rejects_out_of_window_time():
    params = ClockParams(damping=0.5, n_reset=2.0)
    window = re.escape("outside the running window [0, 2.0]")
    with pytest.raises(ValidationError, match=rf"^n = -0\.5 {window}$"):
        wavefunction(0.0, -0.5, params)
    with pytest.raises(ValidationError, match=rf"^n = 2\.5 {window}$"):
        wavefunction(0.0, 2.5, params)
    with pytest.raises(ValidationError, match=f"^n = nan {window}$"):
        wavefunction(0.0, np.array([0.5, np.nan]), params)


def test_normalization_randomized():
    rng = np.random.default_rng(7)
    for _ in range(25):
        params = random_clock_params(rng)
        n = random_probe_time(rng, params)
        norm, _, _ = quadrature_moments(
            params, n, position_expectation(n, params), width(n, params)
        )
        assert norm == pytest.approx(1.0, abs=1e-8)


def test_position_expectation_examples():
    params = validate_clock_params(ClockParams(damping=0.4, alpha=1.3, n_reset=2.0))
    assert position_expectation(0.0, params) == params.amplitude
    undamped = validate_clock_params(ClockParams(damping=0.0, alpha=1.3, n_reset=4.0))
    for n in (0.3, 1.1, 2.7):
        assert position_expectation(n, undamped) == pytest.approx(
            undamped.amplitude * math.cos(undamped.omega * n), rel=1e-14
        )


def test_moments_match_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(20):
        params = random_clock_params(rng)
        n = random_probe_time(rng, params)
        mean_expected = position_expectation(n, params)
        width_expected = width(n, params)
        _, mean_q, std_q = quadrature_moments(params, n, mean_expected, width_expected)
        assert mean_q == pytest.approx(mean_expected, rel=1e-8)
        assert std_q == pytest.approx(width_expected, rel=1e-8)


def test_width_substitution():
    params = ClockParams(n_reset=1.0)
    assert width(0.0, params) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    # r*n = 2 (width carries no window check)
    damped = ClockParams(damping=0.5, n_reset=2.0)
    assert width(4.0, damped) == pytest.approx(math.exp(-1.0) * math.sqrt(0.5), rel=1e-14)


def test_width_monotone_decay():
    ns = np.linspace(0.0, 2.0, 50)
    damped = ClockParams(damping=0.5, n_reset=2.0)
    values = width(ns, damped)
    assert np.all(np.diff(values) < 0.0)
    undamped = ClockParams(damping=0.0, n_reset=2.0)
    assert np.ptp(width(ns, undamped)) == 0.0


def test_envelope_bound():
    rng = np.random.default_rng(3)
    for _ in range(30):
        params = random_clock_params(rng)
        ns = np.linspace(0.0, params.n_reset, 64)
        envelope = params.amplitude * np.exp(-params.damping * ns / 2.0)
        assert np.all(np.abs(position_expectation(ns, params)) <= envelope + 1e-15)


def test_decoherence_rate_examples():
    params = ClockParams(damping=0.3, n_reset=3.0)
    assert decoherence_rate(0.0, params) == pytest.approx(0.3, rel=1e-15)
    # r*n = 1 in natural units gives r/e
    assert decoherence_rate(1.0 / 0.3, params) == pytest.approx(0.3 / math.e, rel=1e-14)
    assert decoherence_rate(1.0, ClockParams(damping=0.0, n_reset=1.0)) == 0.0


def test_decoherence_rate_matches_width_decay():
    rng = np.random.default_rng(5)
    for _ in range(20):
        params = random_clock_params(rng)
        if params.damping == 0.0:
            continue
        n = random_probe_time(rng, params)

        def squared_width_scale(t):
            return math.exp(-params.damping * t) * params.hbar / (params.mass * params.omega)

        fd = abs(central_difference(squared_width_scale, n, 1e-5))
        assert decoherence_rate(n, params) == pytest.approx(fd, rel=1e-6)


def test_stationary_damping_location():
    params = ClockParams(n_reset=1.0)
    point = damping_stationary_point(10.0, params)
    assert point.r_star == pytest.approx(0.1, rel=1e-15)

    def rate_of_r(r):
        return r * math.exp(-r * 10.0)

    assert abs(central_difference(rate_of_r, point.r_star, 1e-5)) <= 1e-8


def test_stationary_damping_classification():
    point = damping_stationary_point(1.0, ClockParams(n_reset=1.0))
    assert point.classification == "maximum"

    def rate_of_r(r):
        return r * math.exp(-r)

    assert second_difference(rate_of_r, 1.0, 1e-3) < 0.0
    assert point.second_difference < 0.0


@pytest.mark.parametrize("n", [1e-9, 3.05e-5, np.linspace(0.0, 2.0, 65536 + 1)[1]],
                         ids=["1e-9", "3.05e-5", "grid-65536"])
def test_stationary_damping_is_a_maximum_at_small_times(n):
    # Small n, down to the first damping-opt row at grid 65,536 (n_reset 2),
    # where the rate's curvature is tiny: still -hbar/(m*omega) * n/e.
    for params in (ClockParams(damping=0.5, n_reset=2.0),
                   ClockParams(hbar=0.7, mass=3.3, omega=1.9, damping=0.5, n_reset=1.0)):
        point = damping_stationary_point(n, params)
        exact = -params.hbar / (params.mass * params.omega) * n / math.e
        assert point.classification == "maximum"
        assert abs(point.second_difference / exact - 1.0) <= 1e-15


def test_stationary_damping_rejects_nonpositive_time():
    with pytest.raises(ValidationError, match=r"^stationary damping requires n > 0, got 0\.0$"):
        damping_stationary_point(0.0, ClockParams(n_reset=1.0))
    with pytest.raises(ValidationError, match=r"^stationary damping requires n > 0, got -1\.0$"):
        damping_stationary_point(np.array([1.0, -1.0, 0.0]), ClockParams(n_reset=1.0))


def test_stationary_damping_rejects_non_finite_time():
    params = ClockParams(n_reset=1.0)
    with pytest.raises(ValidationError, match="^stationary damping requires finite n, got inf$"):
        damping_stationary_point(math.inf, params)
    with pytest.raises(ValidationError, match="got inf$"):
        damping_stationary_point(np.array([1.0, math.inf, 2.0]), params)
    # NaN and -inf keep the n > 0 message.
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValidationError, match=f"^stationary damping requires n > 0, got {bad}$"):
            damping_stationary_point(np.array([1.0, bad]), params)


def test_stationary_damping_array_matches_scalar_calls():
    params = ClockParams(damping=0.5, n_reset=2.0)
    n = np.linspace(0.0, 2.0, 65)[1:]
    points = damping_stationary_point(n, params)
    singles = [damping_stationary_point(float(t), params) for t in n]
    for name in ("r_star", "second_difference", "rate"):
        assert np.array_equal(getattr(points, name), [getattr(p, name) for p in singles])
    assert points.classification.tolist() == [p.classification for p in singles]
    at_star = [decoherence_rate(t, replace(params, damping=r)) for t, r in zip(n, points.r_star)]
    assert np.array_equal(points.rate, at_star)


def test_recommend_damping():
    params = ClockParams(n_reset=10.0)
    assert recommend_damping(10.0, params) == pytest.approx(0.1, rel=1e-15)
    with pytest.raises(ValidationError, match=(
        r"^r = 1/n_reset = 2\.5 violates under-damping r/2 < omega = 1\.0$"
    )):
        recommend_damping(0.4, params)
    with pytest.raises(ValidationError, match="^recommendation requires n_reset > 0, got nan$"):
        recommend_damping(math.nan, params)


def test_global_phase_never_affects_densities():
    base = validate_clock_params(ClockParams(damping=0.5, alpha=1.0, n_reset=2.0, phase=0.0))
    shifted = validate_clock_params(ClockParams(damping=0.5, alpha=1.0, n_reset=2.0, phase=1.3))
    xs = np.linspace(-3.0, 3.0, 101)
    np.testing.assert_allclose(
        np.abs(wavefunction(xs, 0.7, base)) ** 2,
        np.abs(wavefunction(xs, 0.7, shifted)) ** 2,
        rtol=1e-14,
    )


def test_imaginary_alpha_part_affects_no_shipped_quantity():
    real_only = validate_clock_params(ClockParams(damping=0.5, alpha=1.0, n_reset=2.0))
    with_imag = validate_clock_params(ClockParams(damping=0.5, alpha=1.0 + 0.7j, n_reset=2.0))
    assert with_imag.amplitude == real_only.amplitude
    xs = np.linspace(-3.0, 3.0, 101)
    np.testing.assert_array_equal(
        wavefunction(xs, 0.7, real_only), wavefunction(xs, 0.7, with_imag)
    )
    assert position_expectation(0.7, real_only) == position_expectation(0.7, with_imag)

