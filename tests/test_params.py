import dataclasses
import math

import numpy as np
import pytest

from pwclock import (
    ClockParams,
    DimensionTooSmall,
    InvalidAbstractTime,
    NegativeDamping,
    NonPositiveAmplitude,
    NonPositiveScale,
    NotHermitian,
    NotNormalized,
    OutOfRange,
    OverDamped,
    ResetTooLate,
    SystemSpec,
    ValidationError,
    ZeroDamping,
    build_history_state,
    check_abstract_time,
    compare_evolutions,
    conditional_system_probability,
    damping_stationary_point,
    decoherence_rate,
    default_qubit_spec,
    evolve_exact,
    fidelity,
    linearization_report,
    n_from_x_exact,
    n_from_x_linear,
    n_from_x_log,
    position_expectation,
    posterior_over_n,
    recommend_damping,
    validate_clock_params,
    validate_system_spec,
    wavefunction,
    width,
)
from pwclock.params import _MAX_SIZE


def pauli_z_spec():
    return SystemSpec(
        dim=2,
        hamiltonian=np.diag([0.5, -0.5]).astype(complex),
        initial_state=np.array([1.0, 0.0], dtype=complex),
    )


def test_valid_clock_params_pass_through():
    params = ClockParams(mass=1.0, omega=1.0, damping=0.5, n_reset=2.0, alpha=1.0)
    assert validate_clock_params(params) is params


def test_over_damped_rejected():
    with pytest.raises(OverDamped):
        validate_clock_params(ClockParams(damping=2.5, n_reset=0.1))


def test_reset_too_late_rejected():
    with pytest.raises(ResetTooLate):
        validate_clock_params(ClockParams(damping=0.1, n_reset=20.0))


def test_reset_at_limit_accepted():
    validate_clock_params(ClockParams(damping=0.1, n_reset=10.0))


@pytest.mark.parametrize("alpha", [0.0, -1.0, 1j])
def test_non_positive_amplitude_rejected(alpha):
    with pytest.raises(NonPositiveAmplitude):
        validate_clock_params(ClockParams(alpha=alpha, n_reset=1.0))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mass": 0.0},
        {"omega": -1.0},
        {"hbar": 0.0},
        {"n_reset": 0.0},
        {"n_reset": -2.0},
        {"n_reset": math.inf},
    ],
)
def test_non_positive_scales_rejected(kwargs):
    with pytest.raises(NonPositiveScale):
        validate_clock_params(ClockParams(**kwargs))


def test_negative_damping_rejected():
    with pytest.raises(NegativeDamping):
        validate_clock_params(ClockParams(damping=-0.1))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"damping": math.nan},
        {"damping": math.inf},
        {"hbar": math.nan},
        {"mass": math.inf},
        {"omega": math.nan},
        {"n_reset": math.nan},
        {"alpha": complex(math.nan, 0.0)},
        {"alpha": complex(1.0, math.inf)},
        {"phase": math.nan},
    ],
)
def test_non_finite_clock_params_rejected(kwargs):
    with pytest.raises(ValidationError):
        validate_clock_params(ClockParams(**kwargs))


def test_undamped_clock_allowed():
    params = validate_clock_params(ClockParams(damping=0.0, n_reset=5.0))
    assert params.damped_frequency == params.omega


def test_validation_idempotent():
    params = ClockParams(damping=0.3, n_reset=3.0)
    assert validate_clock_params(validate_clock_params(params)) is params


def test_derived_accessors_are_pure():
    params = ClockParams(hbar=1.7, mass=0.6, omega=1.9, damping=0.8, alpha=1.2 + 0.4j, n_reset=1.0)
    assert params.damped_frequency == params.damped_frequency
    assert params.damped_frequency == pytest.approx(
        math.sqrt(params.omega**2 - params.damping**2 / 4.0), abs=0.0
    )
    expected_amp = math.sqrt(2.0 * params.hbar / (params.mass * params.omega)) * 1.2
    assert params.amplitude == pytest.approx(expected_amp, rel=1e-15)


def test_with_amplitude_hits_target():
    params = ClockParams(mass=123.0, omega=0.7, alpha=1.0 - 0.5j, n_reset=1.0)
    scaled = params.with_amplitude(2.5)
    assert scaled.amplitude == pytest.approx(2.5, rel=1e-14)
    assert scaled.alpha.imag == -0.5


def test_clock_params_frozen():
    params = ClockParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.omega = 2.0


def test_valid_system_spec_pass_through():
    spec = pauli_z_spec()
    assert validate_system_spec(spec) is spec


def test_not_hermitian_rejected():
    h = np.array([[0.5, 0.1], [0.3, -0.5]], dtype=complex)
    spec = SystemSpec(dim=2, hamiltonian=h, initial_state=np.array([1.0, 0.0]))
    with pytest.raises(NotHermitian):
        validate_system_spec(spec)


def test_not_normalized_rejected():
    spec = SystemSpec(
        dim=2,
        hamiltonian=np.diag([0.5, -0.5]).astype(complex),
        initial_state=np.array([1.0, 1.0]),
    )
    with pytest.raises(NotNormalized):
        validate_system_spec(spec)


@pytest.mark.parametrize(
    "hamiltonian, initial_state, error",
    [
        (np.diag([0.5, -0.5]), [math.nan, 1.0], NotNormalized),
        (np.diag([0.5, -0.5]), [1.0, complex(0.0, math.inf)], NotNormalized),
        (np.diag([math.nan, -0.5]), [1.0, 0.0], NotHermitian),
        (np.diag([math.inf, -0.5]), [1.0, 0.0], NotHermitian),
    ],
)
def test_non_finite_system_spec_rejected(hamiltonian, initial_state, error):
    spec = SystemSpec(dim=2, hamiltonian=hamiltonian, initial_state=np.array(initial_state))
    with pytest.raises(error):
        validate_system_spec(spec)


def test_dimension_too_small_rejected():
    spec = SystemSpec(dim=1, hamiltonian=np.array([[1.0]]), initial_state=np.array([1.0]))
    with pytest.raises(DimensionTooSmall):
        validate_system_spec(spec)


def test_system_arrays_read_only():
    spec = pauli_z_spec()
    with pytest.raises(ValueError):
        spec.hamiltonian[0, 0] = 9.0
    with pytest.raises(ValueError):
        spec.initial_state[0] = 0.0


def test_rescaled_hamiltonian():
    spec = pauli_z_spec()
    params = ClockParams(damping=0.5, n_reset=2.0, alpha=1.0)
    scaled = spec.rescaled_hamiltonian(params)
    expected = 2.0 * spec.hamiltonian / (0.5 * params.amplitude)
    np.testing.assert_allclose(scaled, expected, rtol=0, atol=0)
    with pytest.raises(ZeroDamping):
        spec.rescaled_hamiltonian(ClockParams(damping=0.0, n_reset=1.0))


def test_check_abstract_time_window():
    params = ClockParams(damping=0.5, n_reset=2.0)
    assert check_abstract_time(0.0, params) == 0.0
    assert check_abstract_time(2.0, params) == 2.0
    with pytest.raises(InvalidAbstractTime):
        check_abstract_time(-0.1, params)
    with pytest.raises(InvalidAbstractTime):
        check_abstract_time(2.1, params)
    times = np.array([0.0, 1.0, 2.0])
    assert check_abstract_time(times, params) is times
    for bad in (2.1, -0.1, np.nan):
        with pytest.raises(InvalidAbstractTime, match=f"n = {bad} "):
            check_abstract_time(np.array([0.5, bad, 3.0]), params)


# Each library function that takes a grid size: a call at a given size that
# returns one array of its result, and the smallest size it accepts.
GRID_TAKERS = {
    "linearization_report": (lambda p, k: linearization_report(p, k).n_exact, 2),
    "compare_evolutions": (lambda p, k: compare_evolutions(default_qubit_spec(), p, k).fidelity, 2),
    "posterior_over_n": (
        lambda p, k: posterior_over_n(position_expectation(0.75, p), p, k).density,
        2,
    ),
    "build_history_state": (
        lambda p, k: build_history_state(default_qubit_spec(), p, k).sys_states,
        16,
    ),
}


@pytest.mark.parametrize("name", GRID_TAKERS)
def test_library_grid_size_is_a_whole_number_at_least_its_minimum(name):
    call, minimum = GRID_TAKERS[name]
    params = validate_clock_params(ClockParams(damping=1.0 / 1.5, n_reset=1.5))
    for bad in (minimum + 0.5, True, "64", math.nan):
        with pytest.raises(ValidationError, match=r"^grid_size must be a whole number, got "):
            call(params, bad)
    with pytest.raises(ValidationError, match=rf"^grid_size must be >= {minimum}, got {minimum - 1}$"):
        call(params, minimum - 1)
    expected = call(params, 64)
    for same in (np.int64(64), 64.0):
        np.testing.assert_array_equal(call(params, same), expected, strict=True)


@pytest.mark.parametrize("name", GRID_TAKERS)
def test_library_grid_size_has_a_ceiling(name):
    call, _ = GRID_TAKERS[name]
    params = validate_clock_params(ClockParams(damping=1.0 / 1.5, n_reset=1.5))
    with pytest.raises(ValidationError, match=rf"^grid_size must be <= {_MAX_SIZE}, got {10**20}$"):
        call(params, 10**20)



# Each closed form, inversion, fidelity and conditioning call at time(s) n on
# one clock (its readings are <x>(n)), and the Python type one time gives.
SCALAR_CLOCK = ClockParams(damping=0.5, n_reset=1.5)
QUBIT = default_qubit_spec()
HALF = np.full((2, 2), 0.5, dtype=complex)  # projector onto (1, 1)/sqrt(2)


def reading(n):
    return position_expectation(n, SCALAR_CLOCK)


SCALAR_TAKERS = {
    "position_expectation": (reading, float),
    "width": (lambda n: width(n, SCALAR_CLOCK), float),
    "decoherence_rate": (lambda n: decoherence_rate(n, SCALAR_CLOCK), float),
    "fidelity": (lambda n: fidelity(evolve_exact(QUBIT, n), QUBIT.initial_state), float),
    "n_from_x_exact": (lambda n: n_from_x_exact(reading(n), SCALAR_CLOCK), float),
    "n_from_x_log": (lambda n: n_from_x_log(reading(n), SCALAR_CLOCK), float),
    "n_from_x_linear": (lambda n: n_from_x_linear(reading(n), SCALAR_CLOCK), float),
    "conditional_system_probability": (
        lambda n: conditional_system_probability(
            build_history_state(QUBIT, SCALAR_CLOCK, 256), reading(n), HALF
        ),
        float,
    ),
    "wavefunction": (lambda n: wavefunction(reading(n), n, SCALAR_CLOCK), complex),
}


@pytest.mark.parametrize("name", SCALAR_TAKERS)
def test_scalar_input_gives_a_python_scalar(name):
    call, kind = SCALAR_TAKERS[name]
    assert type(call(0.5)) is kind
    assert type(call(np.float64(0.5))) is kind
    assert type(call(np.array([0.4, 0.5]))) is np.ndarray


def test_stationary_damping_fields_are_python_scalars_for_one_time():
    def field_types(n):
        point = damping_stationary_point(n, SCALAR_CLOCK)
        return [type(getattr(point, f.name)) for f in dataclasses.fields(point)]

    assert field_types(0.5) == [float, str, float, float]
    assert field_types(np.array([0.5, 1.0])) == [np.ndarray] * 4


# A library call at a bad value, the error it raises and the words that name
# the argument and the value. Warnings are errors, so none may warn instead.
BAD_ARGUMENTS = {
    "recommend_damping(inf)": (
        lambda: recommend_damping(math.inf, SCALAR_CLOCK),
        ValidationError,
        "^recommendation requires finite n_reset, got inf$",
    ),
    "n_from_x_linear(-inf)": (
        lambda: n_from_x_linear(np.array([0.5, -math.inf, math.nan]), SCALAR_CLOCK),
        OutOfRange,
        r"^reading x = -inf outside \(-inf, ",
    ),
    "fidelity(zero, state)": (
        lambda: fidelity(np.zeros(2, dtype=complex), QUBIT.initial_state),
        ValidationError,
        "^a must have a finite nonzero norm, got squared norm 0.0 at state 0$",
    ),
    "fidelity(state, nan)": (
        lambda: fidelity(QUBIT.initial_state, np.array([math.nan, 1.0])),
        ValidationError,
        "^b must have a finite nonzero norm, got squared norm nan at state 0$",
    ),
    "fidelity(stack, stack with inf)": (
        lambda: fidelity(np.eye(3), np.array([[1.0, 0, 0], [0, math.inf, 0], [0, 0, 0]])),
        ValidationError,
        "^b must have a finite nonzero norm, got squared norm inf at state 1$",
    ),
}


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_library_boundary_names_the_bad_argument(case):
    call, error, message = BAD_ARGUMENTS[case]
    with pytest.raises(error, match=message):
        call()
