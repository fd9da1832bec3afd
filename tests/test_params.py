import dataclasses
import inspect
import math
import re
import warnings

import numpy as np
import pytest

import pwclock
from pwclock import (
    ClockParams,
    NumericalError,
    OutOfRange,
    SystemSpec,
    ValidationError,
    build_history_state,
    check_abstract_time,
    compare_evolutions,
    conditional_system_probability,
    damping_stationary_point,
    decoherence_rate,
    default_qubit_spec,
    evolve_exact,
    evolve_via_clock,
    fidelity,
    ideal_limit_concentration,
    invert_position,
    linearization_report,
    n_from_x_exact,
    n_from_x_linear,
    n_from_x_log,
    position_expectation,
    position_given_n,
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
    with pytest.raises(ValidationError, match=(
        r"^under-damping requires r/2 < omega, got r/2 = 1\.25 >= omega = 1\.0$"
    )):
        validate_clock_params(ClockParams(damping=2.5, n_reset=0.1))


def test_reset_too_late_rejected():
    with pytest.raises(
        ValidationError, match=r"^n_reset = 20\.0 exceeds the running-time limit 1/r = 10\.0$"
    ):
        validate_clock_params(ClockParams(damping=0.1, n_reset=20.0))


def test_reset_at_limit_accepted():
    validate_clock_params(ClockParams(damping=0.1, n_reset=10.0))


@pytest.mark.parametrize("alpha", [0.0, -1.0, 1j])
def test_non_positive_amplitude_rejected(alpha):
    with pytest.raises(ValidationError, match=(
        r"^amplitude sqrt\(2\*hbar/\(m\*omega\)\)\*Re\(alpha\) = \S+ "
        "must be > 0 for the time-map inversion$"
    )):
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
    params = ClockParams(**kwargs)
    if "n_reset" in kwargs:
        message = f"n_reset must be a positive finite number, got {params.n_reset}"
    else:
        scales = params.hbar, params.mass, params.omega
        message = f"hbar, mass, omega must be positive finite numbers, got {scales}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        validate_clock_params(params)


def test_negative_damping_rejected():
    with pytest.raises(ValidationError, match=r"^damping must be a finite number >= 0, got -0\.1$"):
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
    with pytest.raises(ValidationError, match="^generator is not Hermitian within 1e-12 entrywise$"):
        validate_system_spec(spec)


def test_not_normalized_rejected():
    spec = SystemSpec(
        dim=2,
        hamiltonian=np.diag([0.5, -0.5]).astype(complex),
        initial_state=np.array([1.0, 1.0]),
    )
    with pytest.raises(ValidationError, match=r"^initial state norm \S+ is not 1 within 1e-12$"):
        validate_system_spec(spec)


@pytest.mark.parametrize(
    "hamiltonian, initial_state, message",
    [
        (np.diag([0.5, -0.5]), [math.nan, 1.0], "initial state"),
        (np.diag([0.5, -0.5]), [1.0, complex(0.0, math.inf)], "initial state"),
        (np.diag([math.nan, -0.5]), [1.0, 0.0], "generator"),
        (np.diag([math.inf, -0.5]), [1.0, 0.0], "generator"),
    ],
    ids=["state-nan", "state-inf", "generator-nan", "generator-inf"],
)
def test_non_finite_system_spec_rejected(hamiltonian, initial_state, message):
    spec = SystemSpec(dim=2, hamiltonian=hamiltonian, initial_state=np.array(initial_state))
    with pytest.raises(ValidationError, match=f"^{message} has non-finite entries$"):
        validate_system_spec(spec)


def test_dimension_too_small_rejected():
    spec = SystemSpec(dim=1, hamiltonian=np.array([[1.0]]), initial_state=np.array([1.0]))
    with pytest.raises(ValidationError, match="^system dimension must be >= 2, got 1$"):
        validate_system_spec(spec)


def test_system_arrays_read_only():
    spec = pauli_z_spec()
    with pytest.raises(ValueError):
        spec.hamiltonian[0, 0] = 9.0
    with pytest.raises(ValueError):
        spec.initial_state[0] = 0.0


def test_check_abstract_time_window():
    params = ClockParams(damping=0.5, n_reset=2.0)
    assert check_abstract_time(0.0, params) == 0.0
    assert check_abstract_time(2.0, params) == 2.0
    window = re.escape("outside the running window [0, 2.0]")
    with pytest.raises(ValidationError, match=rf"^n = -0\.1 {window}$"):
        check_abstract_time(-0.1, params)
    with pytest.raises(ValidationError, match=rf"^n = 2\.1 {window}$"):
        check_abstract_time(2.1, params)
    times = np.array([0.0, 1.0, 2.0])
    assert check_abstract_time(times, params) is times
    for bad in (2.1, -0.1, np.nan):
        with pytest.raises(ValidationError, match=f"^n = {bad} {window}$"):
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
    "fidelity(tiny, zero)": (
        lambda: fidelity(np.array([1e-200, 0.0]), np.zeros(2)),
        ValidationError,
        "^b must have a finite nonzero norm, got squared norm 0.0 at state 0$",
    ),
    "position_expectation(nan)": (
        lambda: position_expectation(math.nan, SCALAR_CLOCK),
        ValidationError,
        "^n must be finite, got nan$",
    ),
    "position_expectation(inf)": (
        lambda: position_expectation(np.array([0.5, math.inf, math.nan]), SCALAR_CLOCK),
        ValidationError,
        "^n must be finite, got inf$",
    ),
    "width(nan)": (lambda: width(math.nan, SCALAR_CLOCK), ValidationError, "^n must be finite, got nan$"),
    "width(-inf)": (
        lambda: width(-math.inf, SCALAR_CLOCK), ValidationError, "^n must be finite, got -inf$"
    ),
    "decoherence_rate(nan)": (
        lambda: decoherence_rate(math.nan, SCALAR_CLOCK),
        ValidationError,
        "^n must be finite, got nan$",
    ),
    "decoherence_rate(inf) undamped": (
        lambda: decoherence_rate(math.inf, ClockParams(n_reset=1.0)),
        ValidationError,
        "^n must be finite, got inf$",
    ),
    "position_given_n(nan, 1.0)": (
        lambda: position_given_n(math.nan, 1.0, SCALAR_CLOCK),
        ValidationError,
        "^x must be finite, got nan$",
    ),
    "wavefunction(nan, 1.0)": (
        lambda: wavefunction(math.nan, 1.0, SCALAR_CLOCK),
        ValidationError,
        "^x must be finite, got nan$",
    ),
    "wavefunction(inf, 1.0)": (
        lambda: wavefunction(np.array([0.5, math.inf]), 1.0, SCALAR_CLOCK),
        ValidationError,
        "^x must be finite, got inf$",
    ),
    # A NaN reading now fails as bad input, not as an unreachable one.
    "posterior_over_n(nan)": (
        lambda: posterior_over_n(math.nan, SCALAR_CLOCK, 64),
        ValidationError,
        "^x must be finite, got nan$",
    ),
}


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_library_boundary_names_the_bad_argument(case):
    call, error, message = BAD_ARGUMENTS[case]
    with pytest.raises(error, match=message):
        call()


def test_closed_forms_stay_defined_at_finite_times_outside_the_window():
    n = np.array([-1.0, 3.0, 1e3])  # the window is [0, 1.5]
    params = SCALAR_CLOCK
    assert np.all(np.isfinite(position_expectation(n, params)))
    assert np.all(np.isfinite(width(n, params)))
    assert np.all(np.isfinite(decoherence_rate(n, params)))


def clock_calls(params):
    """One call of each public function that takes a ClockParams, and of the
    three ClockParams members that compute from its fields."""
    return {
        "ClockParams.amplitude": lambda: params.amplitude,
        "ClockParams.with_amplitude": lambda: params.with_amplitude(1.0),
        "ClockParams.damped_frequency": lambda: params.damped_frequency,
        "validate_clock_params": lambda: validate_clock_params(params),
        "check_abstract_time": lambda: check_abstract_time(0.05, params),
        "position_expectation": lambda: position_expectation(0.05, params),
        "width": lambda: width(0.05, params),
        "decoherence_rate": lambda: decoherence_rate(0.05, params),
        "damping_stationary_point": lambda: damping_stationary_point(0.05, params),
        "recommend_damping": lambda: recommend_damping(1.5, params),
        "wavefunction": lambda: wavefunction(0.5, 0.05, params),
        "position_given_n": lambda: position_given_n(0.5, 0.05, params),
        "posterior_over_n": lambda: posterior_over_n(0.5, params, 16),
        "ideal_limit_concentration": lambda: ideal_limit_concentration(0.5, params, 0.1, 16),
        "n_from_x_exact": lambda: n_from_x_exact(0.5, params),
        "n_from_x_log": lambda: n_from_x_log(0.5, params),
        "n_from_x_linear": lambda: n_from_x_linear(0.5, params),
        "invert_position": lambda: invert_position(0.5, params),
        "linearization_report": lambda: linearization_report(params, 16),
        "evolve_via_clock": lambda: evolve_via_clock(QUBIT, 0.5, params),
        "compare_evolutions": lambda: compare_evolutions(QUBIT, params, 16),
        # The build reads only n_reset; conditioning on its history reads the clock.
        "build_history_state": lambda: conditional_system_probability(
            build_history_state(QUBIT, params, 16), 0.5, HALF
        ),
    }


# Clocks outside the domain rules: hbar, mass and omega positive finite
# numbers, and under-damping r/2 < omega.
BAD_SCALE_CLOCKS = {
    "mass=-1": ClockParams(damping=0.5, n_reset=1.5, mass=-1.0),
    "hbar=nan": ClockParams(damping=0.5, n_reset=1.5, hbar=math.nan),
    "omega=0": ClockParams(damping=0.5, n_reset=1.5, omega=0.0),
}
OVER_DAMPED = ClockParams(damping=5.0, n_reset=0.1)
# The calls that read neither A, the width, hbar/(m*omega) nor omega's scale rule.
READ_NO_SCALE = {"ClockParams.damped_frequency", "check_abstract_time"}
# The calls that read Omega, the only quantity that needs r/2 < omega.
READ_OMEGA = {
    "ClockParams.damped_frequency",
    "validate_clock_params",
    "position_expectation",
    "wavefunction",
    "position_given_n",
    "posterior_over_n",
    "ideal_limit_concentration",
    "n_from_x_exact",
    "invert_position",
    "linearization_report",
    "compare_evolutions",
    "build_history_state",
}


def all_finite(value) -> bool:
    """True if no float or complex in ``value``, or in its fields, is NaN or infinite."""
    if dataclasses.is_dataclass(value):
        return all(all_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    array = np.asarray(value)
    return array.dtype.kind not in "fc" or bool(np.all(np.isfinite(array)))


def raises_typed_error(call) -> bool:
    """True if ``call`` raises ValidationError (OutOfRange included) or NumericalError,
    False if it returns values that are all finite. Anything else fails: a warning, any
    other exception (a bare ValueError too) or a NaN or infinity in the result."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except (ValidationError, NumericalError):
            return True
    assert all_finite(result), result
    return False


def test_clock_calls_cover_every_public_function_that_takes_a_clock():
    takers = {
        name
        for name, value in vars(pwclock).items()
        if inspect.isfunction(value)
        and any(p.annotation in ("ClockParams", ClockParams)
                for p in inspect.signature(value).parameters.values())
    }
    assert {name for name in clock_calls(SCALAR_CLOCK) if "." not in name} == takers


@pytest.mark.parametrize("clock", BAD_SCALE_CLOCKS)
def test_bad_scales_raise_typed_errors_wherever_they_are_read(clock):
    calls = clock_calls(BAD_SCALE_CLOCKS[clock])
    returned = {name for name, call in calls.items() if not raises_typed_error(call)}
    assert returned <= READ_NO_SCALE


def test_over_damped_clock_raises_typed_errors_wherever_omega_is_read():
    calls = clock_calls(OVER_DAMPED)
    assert {name for name, call in calls.items() if raises_typed_error(call)} == READ_OMEGA


# Clocks outside the damping rule, r a finite number >= 0, and the calls
# that read no r: A, the reset window and the stationary point's own r = 1/n.
BAD_DAMPING_CLOCKS = {
    "damping=-5": ClockParams(damping=-5.0),
    "damping=-0.1": ClockParams(damping=-0.1, n_reset=1.5),
    "damping=inf": ClockParams(damping=math.inf, n_reset=1.5),
    "damping=nan": ClockParams(damping=math.nan, n_reset=1.5),
}
READ_NO_DAMPING = {
    "ClockParams.amplitude",
    "check_abstract_time",
    "damping_stationary_point",
    "recommend_damping",
}
# Clocks outside the rule that alpha and phase be finite, and the calls that
# read neither A nor alpha.
BAD_ALPHA_CLOCKS = {
    "alpha=nan": ClockParams(damping=0.5, n_reset=1.5, alpha=complex(math.nan, 0.0)),
    "alpha=1+infj": ClockParams(damping=0.5, n_reset=1.5, alpha=complex(1.0, math.inf)),
    "phase=nan": ClockParams(damping=0.5, n_reset=1.5, phase=math.nan),
}
READ_NO_ALPHA = {
    "ClockParams.damped_frequency",
    "check_abstract_time",
    "damping_stationary_point",
    "decoherence_rate",
    "recommend_damping",
    "width",
}


@pytest.mark.parametrize("clock", BAD_DAMPING_CLOCKS)
def test_bad_damping_raises_the_rule_wherever_r_is_read(clock):
    calls = clock_calls(BAD_DAMPING_CLOCKS[clock])
    del calls["ClockParams.with_amplitude"]  # reads no r; the copy it returns keeps the bad one
    returned = {name for name, call in calls.items() if not raises_typed_error(call)}
    assert returned == READ_NO_DAMPING
    for name in sorted(calls.keys() - returned):
        with pytest.raises(ValidationError, match="^damping must be a finite number >= 0, got "):
            calls[name]()


@pytest.mark.parametrize("clock", BAD_ALPHA_CLOCKS)
def test_bad_alpha_or_phase_raises_the_rule_wherever_alpha_is_read(clock):
    calls = clock_calls(BAD_ALPHA_CLOCKS[clock])
    returned = {name for name, call in calls.items() if not raises_typed_error(call)}
    assert returned == READ_NO_ALPHA
    for name in sorted(calls.keys() - returned):
        with pytest.raises(ValidationError, match="^alpha and phase must be finite, got "):
            calls[name]()


# Clocks outside the rule that n_reset be a positive finite number, and the
# calls that read no n_reset: A, Omega, the closed forms, the log and linear
# inversions, and recommend_damping, which takes an n_reset of its own.
BAD_N_RESET_CLOCKS = {
    f"n_reset={n_reset}": ClockParams(damping=0.5, n_reset=n_reset)
    for n_reset in (math.nan, math.inf, 0.0, -1.0)
}
READ_NO_N_RESET = {
    "ClockParams.amplitude",
    "ClockParams.damped_frequency",
    "position_expectation",
    "width",
    "decoherence_rate",
    "damping_stationary_point",
    "recommend_damping",
    "n_from_x_log",
    "n_from_x_linear",
    "evolve_via_clock",
}


@pytest.mark.parametrize("clock", BAD_N_RESET_CLOCKS)
def test_bad_n_reset_raises_the_rule_wherever_n_reset_is_read(clock):
    # Each once leaked: "n = 0.05 outside the running window [0, nan]" from
    # the window check, or "n must be finite" from a grid that ends in NaN.
    params = BAD_N_RESET_CLOCKS[clock]
    calls = clock_calls(params)
    del calls["ClockParams.with_amplitude"]  # reads no n_reset; the copy it returns keeps the bad one
    # Conditioning reads the window of the clock its history carries.
    history = build_history_state(QUBIT, SCALAR_CLOCK, 16)
    calls["conditional_system_probability"] = lambda: conditional_system_probability(
        dataclasses.replace(history, clock_params=params), 0.5, HALF
    )
    returned = {name for name, call in calls.items() if not raises_typed_error(call)}
    assert returned == READ_NO_N_RESET
    message = f"^n_reset must be a positive finite number, got {params.n_reset}$"
    for name in sorted(calls.keys() - returned):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                calls[name]()


@pytest.mark.parametrize("damping", [-5.0, math.inf, math.nan])
@pytest.mark.parametrize("closed_form", [position_expectation, width, decoherence_rate])
@pytest.mark.parametrize("n", [0.0, 0.5])
def test_closed_forms_reject_a_bad_damping_at_every_time(damping, closed_form, n):
    # Each once leaked: at r = -5 a bare "math domain error" from the mean, a
    # width of 2.468 and a rate of -60.9 at n = 0.5; at r = inf a width of 0.0,
    # and a RuntimeWarning at n = 0; at r = NaN a NaN width.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^damping must be a finite number >= 0, got {damping}$"):
            closed_form(n, ClockParams(damping=damping))
