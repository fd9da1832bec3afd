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
    SystemSpec,
    ValidationError,
    build_history_state,
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
    posterior_over_n,
    recommend_damping,
    wavefunction,
    width,
)
from pwclock.params import (
    _MAX_SIZE,
    check_abstract_time,
    validate_clock_params,
    validate_system_spec,
)


def pauli_z_spec():
    return SystemSpec(
        hamiltonian=np.diag([0.5, -0.5]).astype(complex),
        initial_state=np.array([1.0, 0.0], dtype=complex),
    )


# A ClockParams is checked when it is made: ClockParams itself and
# dataclasses.replace on a valid clock both refuse a clock outside the domain
# rules, with the rule's message, so no function can be handed one.
VALID_CLOCK = ClockParams(damping=0.5, n_reset=1.5)


def assert_refused_when_built(fields, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        ClockParams(**fields)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(VALID_CLOCK, **fields)


def test_valid_clock_params_pass_through():
    params = ClockParams(mass=1.0, omega=1.0, damping=0.5, n_reset=2.0, alpha=1.0)
    assert validate_clock_params(params) is params


def test_over_damped_rejected():
    with pytest.raises(ValidationError, match=(
        r"^under-damping requires r/2 < omega, got r/2 = 1\.25 >= omega = 1\.0$"
    )):
        ClockParams(damping=2.5, n_reset=0.1)


def test_reset_too_late_rejected():
    assert_refused_when_built(
        {"damping": 0.1, "n_reset": 20.0},
        "n_reset = 20.0 exceeds the running-time limit 1/r = 10.0",
    )


def test_reset_at_limit_accepted():
    ClockParams(damping=0.1, n_reset=10.0)


def amplitude_message(amplitude):
    return (f"amplitude sqrt(2*hbar/(m*omega))*alpha = {amplitude} "
            "must be a finite number > 0 for the time-map inversion")


@pytest.mark.parametrize("alpha", [0.0, -1.0])
def test_non_positive_amplitude_rejected(alpha):
    amplitude = math.sqrt(2.0) * alpha
    assert_refused_when_built({"alpha": alpha}, amplitude_message(amplitude))


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
    if "n_reset" in kwargs:
        message = f"n_reset must be a positive finite number, got {kwargs['n_reset']}"
    else:
        scales = tuple(kwargs.get(name, 1.0) for name in ("hbar", "mass", "omega"))
        message = f"hbar, mass, omega must be positive finite numbers, got {scales}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        ClockParams(**kwargs)


def test_negative_damping_rejected():
    with pytest.raises(ValidationError, match=r"^damping must be a finite number >= 0, got -0\.1$"):
        ClockParams(damping=-0.1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"damping": math.nan},
        {"damping": math.inf},
        {"hbar": math.nan},
        {"mass": math.inf},
        {"omega": math.nan},
        {"n_reset": math.nan},
        {"alpha": math.nan},
        {"alpha": math.inf},
    ],
)
def test_non_finite_clock_params_rejected(kwargs):
    with pytest.raises(ValidationError):
        ClockParams(**kwargs)


def test_undamped_clock_allowed():
    params = ClockParams(damping=0.0, n_reset=5.0)
    assert params.damped_frequency == params.omega


def test_validation_idempotent():
    params = ClockParams(damping=0.3, n_reset=3.0)
    assert validate_clock_params(validate_clock_params(params)) is params


def test_derived_accessors_are_pure():
    params = ClockParams(hbar=1.7, mass=0.6, omega=1.9, damping=0.8, alpha=1.2, n_reset=1.0)
    assert params.damped_frequency == params.damped_frequency
    assert params.damped_frequency == pytest.approx(
        math.sqrt(params.omega**2 - params.damping**2 / 4.0), abs=0.0
    )
    expected_amp = math.sqrt(2.0 * params.hbar / (params.mass * params.omega)) * 1.2
    assert params.amplitude == pytest.approx(expected_amp, rel=1e-15)


def test_with_amplitude_hits_target():
    params = ClockParams(mass=123.0, omega=0.7, n_reset=1.0)
    scaled = params.with_amplitude(2.5)
    assert scaled.amplitude == pytest.approx(2.5, rel=1e-14)
    with pytest.raises(ValidationError, match=f"^{re.escape(amplitude_message(0.0))}$"):
        params.with_amplitude(0.0)
    with pytest.raises(ValidationError, match="^amplitude must be a number, got '1'$"):
        params.with_amplitude("1")
    # A non-finite amplitude is named as such, before it becomes alpha.
    for amplitude in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match=f"^amplitude must be finite, got {amplitude}$"):
            params.with_amplitude(amplitude)


def test_with_amplitude_builds_the_changed_clock_in_one_step():
    params = ClockParams(damping=0.1, n_reset=1.5, alpha=1.3)
    assert params.with_amplitude(1.0, mass=100.0) == dataclasses.replace(
        params, mass=100.0).with_amplitude(1.0)
    # At alpha = 1e-300 the clock with only its mass changed has A = 0 and
    # is refused; the clock with both changed is built.
    tiny = ClockParams(damping=0.1, n_reset=1.5, alpha=1e-300)
    with pytest.raises(ValidationError, match=f"^{re.escape(amplitude_message(0.0))}$"):
        dataclasses.replace(tiny, mass=1e60)
    scaled = tiny.with_amplitude(tiny.amplitude, mass=1e60)
    assert scaled.mass == 1e60
    assert scaled.amplitude == pytest.approx(tiny.amplitude, rel=1e-14)
    # Scales that a rule refuses give that rule's message, not an arithmetic error.
    for mass in (0.0, math.inf, -1.0):
        with pytest.raises(ValidationError, match="^hbar, mass, omega must be positive finite"):
            params.with_amplitude(1.0, mass=mass)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"omega": 1e200, "mass": 1e-200}, "omega**2 overflows, got omega = 1e+200"),
        ({"mass": 1e-200, "omega": 1e-200, "damping": 0.0},
         "m*omega underflows to 0, got mass = 1e-200, omega = 1e-200"),
        # Where an earlier rule holds, it keeps its message.
        ({"omega": 1e200, "mass": 1e200}, amplitude_message(0.0)),
        ({"omega": 1e200, "alpha": -1.0}, amplitude_message(-math.sqrt(2e-200))),
    ],
    ids=["omega-squared-overflows", "m-omega-underflows", "m-omega-overflows", "negative-alpha"],
)
def test_extreme_scales_are_refused_by_a_rule(fields, message):
    assert_refused_when_built(fields, message)


def test_clock_params_frozen():
    params = ClockParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.omega = 2.0


def test_valid_system_spec_pass_through():
    spec = pauli_z_spec()
    assert validate_system_spec(spec) is spec


def test_not_hermitian_rejected():
    h = np.array([[0.5, 0.1], [0.3, -0.5]], dtype=complex)
    with pytest.raises(ValidationError, match="^generator is not Hermitian within 1e-12 entrywise$"):
        SystemSpec(hamiltonian=h, initial_state=np.array([1.0, 0.0]))


def test_not_normalized_rejected():
    with pytest.raises(ValidationError, match=r"^initial state norm \S+ is not 1 within 1e-12$"):
        SystemSpec(
            hamiltonian=np.diag([0.5, -0.5]).astype(complex),
            initial_state=np.array([1.0, 1.0]),
        )


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
    with pytest.raises(ValidationError, match=f"^{message} has non-finite entries$"):
        SystemSpec(hamiltonian=hamiltonian, initial_state=np.array(initial_state))


def test_a_system_is_its_generator_and_its_state():
    # The dimension is the state's length; no third field can disagree with it.
    assert [f.name for f in dataclasses.fields(SystemSpec)] == ["hamiltonian", "initial_state"]
    with pytest.raises(TypeError):
        SystemSpec(dim=2, hamiltonian=np.eye(2), initial_state=np.array([1.0, 0.0]))


def test_dimension_too_small_rejected():
    with pytest.raises(ValidationError, match="^system dimension must be >= 2, got 1$"):
        SystemSpec(hamiltonian=np.array([[1.0]]), initial_state=np.array([1.0]))


# A SystemSpec is checked when it is made, as a ClockParams is: the spec
# itself and dataclasses.replace on a valid spec both refuse a system that
# breaks a rule, with the rule's message.
@pytest.mark.parametrize(
    "fields, message",
    [
        ({"hamiltonian": np.array([[0.5, 1.0], [0.0, -0.5]])},
         "generator is not Hermitian within 1e-12 entrywise"),
        ({"hamiltonian": np.eye(3)}, "generator must be 2x2, got shape (3, 3)"),
        ({"initial_state": np.array([3.0, 0.0])}, "initial state norm 3.0 is not 1 within 1e-12"),
        ({"hamiltonian": np.diag([math.nan, -0.5])}, "generator has non-finite entries"),
        ({"initial_state": np.array([1.0, 0.0, 0.0])}, "generator must be 3x3, got shape (2, 2)"),
    ],
    ids=["non-hermitian", "3x3-for-dim-2", "norm-3", "nan-generator", "state-length-3"],
)
def test_invalid_system_cannot_be_built(fields, message):
    valid = pauli_z_spec()
    made = dict(hamiltonian=valid.hamiltonian, initial_state=valid.initial_state)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        SystemSpec(**dict(made, **fields))
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(valid, **fields)


# A clock field of the wrong type is refused when the clock is made,
# with a ValidationError that names the field: no bare TypeError or
# OverflowError, and no string parsed or bool read as a number.
WRONG_TYPES = {
    'mass="1"': ({"mass": "1"}, "mass must be a number, got '1'"),
    "n_reset=None": ({"n_reset": None}, "n_reset must be a number, got None"),
    "alpha=[1, 0]": ({"alpha": [1, 0]}, "alpha must be a number, got [1, 0]"),
    "hbar=1+0j": ({"hbar": 1 + 0j}, "hbar must be a number, got (1+0j)"),
    "mass=10**400": ({"mass": 10**400}, "mass must be a finite number, got an int of 401 digits"),
    'alpha="1"': ({"alpha": "1"}, "alpha must be a number, got '1'"),
    "alpha=10**400": (
        {"alpha": 10**400}, "alpha must be a finite number, got an int of 401 digits"
    ),
    # Beyond 4300 digits repr itself fails, so the digits are counted, not shown.
    "mass=10**5000": ({"mass": 10**5000}, "mass must be a finite number, got an int of 5001 digits"),
    "alpha=10**5000": (
        {"alpha": 10**5000}, "alpha must be a finite number, got an int of 5001 digits"
    ),
    "damping=True": ({"damping": True}, "damping must be a number, got True"),
}


@pytest.mark.parametrize("case", WRONG_TYPES)
def test_a_field_of_the_wrong_type_is_refused_by_name(case):
    fields, message = WRONG_TYPES[case]
    match = f"^{re.escape(message)}$"
    assert_refused_when_built(fields, message)
    with pytest.raises(ValidationError, match=match):  # the same reading for a changed field
        VALID_CLOCK.with_amplitude(1.0, **fields)


def test_fields_are_stored_as_the_type_they_are_read_as():
    clock = ClockParams(hbar=np.int64(1), mass=2, damping=np.float32(0.5), alpha=1, n_reset=1)
    assert [type(value) for value in vars(clock).values()] == [float] * 6


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
    params = ClockParams(damping=1.0 / 1.5, n_reset=1.5)
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
    params = ClockParams(damping=1.0 / 1.5, n_reset=1.5)
    with pytest.raises(ValidationError, match=rf"^grid_size must be <= {_MAX_SIZE}, got {10**20}$"):
        call(params, 10**20)



# Each closed form, inversion, fidelity and conditioning call at time(s) n on
# one clock (its readings are <x>(n)), and the Python type one time gives.
SCALAR_CLOCK = ClockParams(damping=0.5, n_reset=1.5)
QUBIT = default_qubit_spec()
LOUD_QUBIT = dataclasses.replace(QUBIT, hamiltonian=np.diag([10.0, -10.0]))
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
    "wavefunction": (lambda n: wavefunction(reading(n), n, SCALAR_CLOCK), float),
}


@pytest.mark.parametrize("name", SCALAR_TAKERS)
def test_scalar_input_gives_a_python_scalar(name):
    call, kind = SCALAR_TAKERS[name]
    assert type(call(0.5)) is kind
    assert type(call(np.float64(0.5))) is kind
    assert type(call(np.array([0.4, 0.5]))) is np.ndarray


# Each call that reads time(s) n or reading(s) x as a float array, the argument's name, and
# values that are not real numbers, with the dtype numpy gives them: a complex, a string, an
# int beyond every integer dtype and a bool. Warnings are errors, so each must be refused by
# name, not read as its real part (with a warning), met by a numpy error or read as 1.0.
ARRAY_READERS = {
    "position_expectation": (lambda v: position_expectation(v, SCALAR_CLOCK), "n"),
    "width": (lambda v: width(v, SCALAR_CLOCK), "n"),
    "decoherence_rate": (lambda v: decoherence_rate(v, SCALAR_CLOCK), "n"),
    "damping_stationary_point": (lambda v: damping_stationary_point(v, SCALAR_CLOCK), "n"),
    "wavefunction(n)": (lambda v: wavefunction(0.5, v, SCALAR_CLOCK), "n"),
    "wavefunction(x)": (lambda v: wavefunction(v, 0.5, SCALAR_CLOCK), "x"),
    "check_abstract_time": (lambda v: check_abstract_time(v, SCALAR_CLOCK), "n"),
    "evolve_exact": (lambda v: evolve_exact(QUBIT, v), "n"),
    "n_from_x_exact": (lambda v: n_from_x_exact(v, SCALAR_CLOCK), "x"),
    "n_from_x_log": (lambda v: n_from_x_log(v, SCALAR_CLOCK), "x"),
    "n_from_x_linear": (lambda v: n_from_x_linear(v, SCALAR_CLOCK), "x"),
    "invert_position": (lambda v: invert_position(v, SCALAR_CLOCK), "x"),
    "conditional_system_probability": (
        lambda v: conditional_system_probability(
            build_history_state(QUBIT, SCALAR_CLOCK, 64), v, HALF
        ),
        "x",
    ),
}
NON_REAL = {
    "complex": (np.array([0.5 + 1j]), "dtype complex128"),
    "str": ("a", "dtype <U1"),
    "huge int": (10**400, "dtype object"),
    "bool": (True, "dtype bool"),
    "ragged": ([[0.1], [0.1, 0.2]], "a ragged sequence"),
}


@pytest.mark.parametrize("value", NON_REAL)
@pytest.mark.parametrize("name", ARRAY_READERS)
def test_a_non_real_time_or_reading_is_named(name, value):
    (call, argument), (bad, got) = ARRAY_READERS[name], NON_REAL[value]
    with pytest.raises(ValidationError, match=rf"^{argument} must be real numbers, got {got}$"):
        call(bad)


# Each call that reads a state, a generator or a projector as a complex array, the argument's
# name, and values that are not numbers. Each is refused by name, not met by numpy's ragged
# ValueError or a malformed complex(), nor read as 1 and 0 (a bool) or as NaN (a None).
COMPLEX_READERS = {
    "SystemSpec(hamiltonian)": (
        lambda v: SystemSpec(hamiltonian=v, initial_state=[1, 0]), "hamiltonian"),
    "SystemSpec(initial_state)": (
        lambda v: SystemSpec(hamiltonian=np.eye(2), initial_state=v), "initial_state"),
    "fidelity(a)": (lambda v: fidelity(v, [1, 0]), "a"),
    "fidelity(b)": (lambda v: fidelity([1, 0], v), "b"),
    "conditional_system_probability(projector)": (
        lambda v: conditional_system_probability(
            build_history_state(QUBIT, SCALAR_CLOCK, 64), 0.5, v
        ),
        "projector",
    ),
}
NON_NUMBER = {
    "ragged": ([[1, 0], [0]], "a ragged sequence"),
    "str": (["1", "0"], "dtype <U1"),
    "bool": ([True, False], "dtype bool"),
    "object": ([1, None], "dtype object"),
}


@pytest.mark.parametrize("value", NON_NUMBER)
@pytest.mark.parametrize("name", COMPLEX_READERS)
def test_a_non_number_state_generator_or_projector_is_named(name, value):
    (call, argument), (bad, got) = COMPLEX_READERS[name], NON_NUMBER[value]
    with pytest.raises(ValidationError, match=rf"^{argument} must be numbers, got {got}$"):
        call(bad)


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
        lambda: recommend_damping(math.inf),
        ValidationError,
        "^recommendation requires finite n_reset, got inf$",
    ),
    # An argument of the wrong type is named, not met by a comparison's TypeError.
    'recommend_damping("1")': (
        lambda: recommend_damping("1"), ValidationError, "^n_reset must be a number, got '1'$"
    ),
    "recommend_damping(None)": (
        lambda: recommend_damping(None), ValidationError, "^n_reset must be a number, got None$"
    ),
    'ideal_limit_concentration(window="a")': (
        lambda: ideal_limit_concentration(0.5, SCALAR_CLOCK, "a"),
        ValidationError,
        "^window must be a number, got 'a'$",
    ),
    "ideal_limit_concentration(window=None)": (
        lambda: ideal_limit_concentration(0.5, SCALAR_CLOCK, None),
        ValidationError,
        "^window must be a number, got None$",
    ),
    # An int beyond the float range is shown by its digit count, which repr cannot give.
    "with_amplitude(10**5000)": (
        lambda: SCALAR_CLOCK.with_amplitude(10**5000),
        ValidationError,
        "^amplitude must be a finite number, got an int of 5001 digits$",
    ),
    "posterior_over_n(grid_size=10**5000)": (
        lambda: posterior_over_n(0.5, SCALAR_CLOCK, 10**5000),
        ValidationError,
        f"^grid_size must be <= {_MAX_SIZE}, got an int of 5001 digits$",
    ),
    "n_from_x_linear(-inf)": (
        lambda: n_from_x_linear(np.array([0.5, -math.inf, math.nan]), SCALAR_CLOCK),
        ValidationError,
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
    # Shapes that do not fit are named, not met by numpy's broadcast, matmul or index error.
    "wavefunction(2 readings, 3 times)": (
        lambda: wavefunction([0.1, 0.2], [0.1, 0.2, 0.3], SCALAR_CLOCK),
        ValidationError,
        r"^x and n do not match: shapes \(2,\) and \(3,\)$",
    ),
    "fidelity(2 entries, 3 entries)": (
        lambda: fidelity([1, 0], [1, 0, 0]),
        ValidationError,
        r"^states a and b do not match: shapes \(2,\) and \(3,\)$",
    ),
    "fidelity(2 entries, 1 entry)": (
        lambda: fidelity([1, 0], [1]),
        ValidationError,
        r"^states a and b do not match: shapes \(2,\) and \(1,\)$",
    ),
    "fidelity(3 states, 4 states)": (
        lambda: fidelity(np.ones((3, 2)), np.ones((4, 2))),
        ValidationError,
        r"^states a and b do not match: shapes \(3, 2\) and \(4, 2\)$",
    ),
    "fidelity(scalar, scalar)": (
        lambda: fidelity(1.0, 1.0),
        ValidationError,
        r"^states a and b do not match: shapes \(\) and \(\)$",
    ),
    "fidelity(empty, empty)": (
        lambda: fidelity([], []),
        ValidationError,
        r"^states a and b do not match: shapes \(0,\) and \(0,\)$",
    ),
    # A NaN reading now fails as bad input, not as an unreachable one.
    "posterior_over_n(nan)": (
        lambda: posterior_over_n(math.nan, SCALAR_CLOCK, 64),
        ValidationError,
        "^x must be finite, got nan$",
    ),
    # A function of one reading names an array of them, not numpy's broadcast.
    "posterior_over_n([0.5, 0.6])": (
        lambda: posterior_over_n(np.array([0.5, 0.6]), SCALAR_CLOCK, 64),
        ValidationError,
        r"^x must be a number, got array\(\[0\.5, 0\.6\]\)$",
    ),
    "ideal_limit_concentration([0.5, 0.6])": (
        lambda: ideal_limit_concentration(np.array([0.5, 0.6]), SCALAR_CLOCK, 0.05, 64),
        ValidationError,
        r"^x must be a number, got array\(\[0\.5, 0\.6\]\)$",
    ),
    # A finite time far before the window overflows a closed form, and is named.
    "position_expectation(-3000)": (
        lambda: position_expectation(-3000.0, SCALAR_CLOCK),
        ValidationError,
        r"^n = -3000\.0 overflows A\*exp\(-r\*n/2\)\*cos\(Omega\*n\)$",
    ),
    "width(-1e308)": (
        lambda: width(np.array([0.5, -1e308, -3000.0]), SCALAR_CLOCK),
        ValidationError,
        r"^n = -1e\+308 overflows exp\(-r\*n/2\)\*sqrt\(hbar/\(2\*m\*omega\)\)$",
    ),
    "decoherence_rate(-3000)": (
        lambda: decoherence_rate(-3000.0, SCALAR_CLOCK),
        ValidationError,
        r"^n = -3000\.0 overflows r\*hbar\*exp\(-r\*n\)/\(m\*omega\)$",
    ),
    # Reciprocals that overflow, named after the "> 0" and "finite" checks.
    "damping_stationary_point(1e-320)": (
        lambda: damping_stationary_point(np.array([1.0, 1e-320]), SCALAR_CLOCK),
        ValidationError,
        r"^stationary damping overflows at n = 1e-320$",
    ),
    "recommend_damping(1e-320)": (
        lambda: recommend_damping(1e-320), ValidationError, r"^n_reset = 1e-320 overflows 1/n_reset$"
    ),
    # Readings whose time-map value overflows.
    "n_from_x_log(1e-320)": (
        lambda: n_from_x_log(np.array([0.5, 1e-320, 5e-324]), SCALAR_CLOCK),
        ValidationError,
        r"^reading x = 1e-320 overflows \(2/r\)\*ln\(A/x\)$",
    ),
    # A reading below <x>(n_reset) is refused, as on every clock.
    "ideal_limit_concentration(1e-320)": (
        lambda: ideal_limit_concentration(1e-320, SCALAR_CLOCK, 0.05, 64),
        ValidationError,
        r"^reading x = 1e-320 outside the attained interval \(",
    ),
    "n_from_x_linear(-1e308)": (
        lambda: n_from_x_linear(-1e308, SCALAR_CLOCK),
        ValidationError,
        r"^reading x = -1e\+308 overflows 2\*\(A - x\)/\(r\*A\)$",
    ),
    "evolve_exact(1e308) at E = +-10": (
        lambda: evolve_exact(LOUD_QUBIT, np.array([0.5, 1e308])),
        ValidationError,
        r"^n = 1e\+308 overflows E\*n$",
    ),
    "evolve_via_clock(-1e308)": (
        lambda: evolve_via_clock(QUBIT, np.array([0.5, -1e308]), SCALAR_CLOCK),
        ValidationError,
        r"^reading x = -1e\+308 overflows 2\*\(A - x\)/\(r\*A\)$",
    ),
}


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_library_boundary_names_the_bad_argument(case):
    call, error, message = BAD_ARGUMENTS[case]
    with pytest.raises(error, match=message):
        call()


# Every public function with one time, reading, window or state argument set
# to an extreme value, the others ordinary.
EXTREMES = (-1e308, -3000.0, -5e-324, 5e-324, 1e-320, 1e308)
EXTREME_HISTORY = build_history_state(QUBIT, SCALAR_CLOCK, 64)
ONE_ARGUMENT_CALLS = {
    "wavefunction(x)": lambda v: wavefunction(v, 0.5, SCALAR_CLOCK),
    "wavefunction(n)": lambda v: wavefunction(0.5, v, SCALAR_CLOCK),
    "position_expectation(n)": lambda v: position_expectation(v, SCALAR_CLOCK),
    "width(n)": lambda v: width(v, SCALAR_CLOCK),
    "decoherence_rate(n)": lambda v: decoherence_rate(v, SCALAR_CLOCK),
    "damping_stationary_point(n)": lambda v: damping_stationary_point(v, SCALAR_CLOCK),
    "recommend_damping(n_reset)": recommend_damping,
    "n_from_x_exact(x)": lambda v: n_from_x_exact(v, SCALAR_CLOCK),
    "n_from_x_log(x)": lambda v: n_from_x_log(v, SCALAR_CLOCK),
    "n_from_x_linear(x)": lambda v: n_from_x_linear(v, SCALAR_CLOCK),
    "invert_position(x)": lambda v: invert_position(v, SCALAR_CLOCK),
    "posterior_over_n(x)": lambda v: posterior_over_n(v, SCALAR_CLOCK, 64),
    "ideal_limit_concentration(x)": lambda v: ideal_limit_concentration(v, SCALAR_CLOCK, 0.05, 64),
    "ideal_limit_concentration(window)": lambda v: ideal_limit_concentration(
        reading(0.5), SCALAR_CLOCK, v, 64
    ),
    "conditional_system_probability(x)": lambda v: conditional_system_probability(
        EXTREME_HISTORY, v, HALF
    ),
    "fidelity(a)": lambda v: fidelity(np.full(2, v, dtype=complex), QUBIT.initial_state),
    "fidelity(b)": lambda v: fidelity(QUBIT.initial_state, np.array([v, 1.0])),
    "evolve_exact(n)": lambda v: evolve_exact(QUBIT, v),
    # Energies +-10: E*n overflows at n = +-1e308.
    "evolve_exact(n) at E = +-10": lambda v: evolve_exact(LOUD_QUBIT, v),
    "evolve_via_clock(x)": lambda v: evolve_via_clock(QUBIT, v, SCALAR_CLOCK),
}
# Public functions that take none of those: sizes, specs and clocks only.
NO_EXTREME_ARGUMENT = {
    "linearization_report", "build_history_state", "compare_evolutions", "default_qubit_spec"
}


def all_finite(result) -> bool:
    """True if every number in ``result``, each field of a record, is finite."""
    if dataclasses.is_dataclass(result):
        return all(all_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    values = np.asarray(result)
    return values.dtype.kind in "US" or bool(np.all(np.isfinite(values)))


def test_the_extreme_value_table_covers_every_public_function():
    functions = {
        name for name, value in vars(pwclock).items()
        if not name.startswith("_") and inspect.isfunction(value)
    }
    assert NO_EXTREME_ARGUMENT <= functions
    assert {call.partition("(")[0] for call in ONE_ARGUMENT_CALLS} == functions - NO_EXTREME_ARGUMENT


@pytest.mark.parametrize("call", ONE_ARGUMENT_CALLS)
def test_an_extreme_argument_gives_finite_values_or_a_typed_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in EXTREMES:
            try:
                result = ONE_ARGUMENT_CALLS[call](value)
            except (ValidationError, NumericalError):
                continue
            assert all_finite(result), (call, value, result)


def test_closed_forms_stay_defined_at_finite_times_outside_the_window():
    n = np.array([-1.0, 3.0, 1e3])  # the window is [0, 1.5]
    params = SCALAR_CLOCK
    assert np.all(np.isfinite(position_expectation(n, params)))
    assert np.all(np.isfinite(width(n, params)))
    assert np.all(np.isfinite(decoherence_rate(n, params)))


def test_a_huge_finite_reading_has_a_zero_envelope():
    # (x - <x>)^2 overflows at these readings; the Gaussian is exactly 0
    # there, so conditioning and the posterior find the reading unreachable.
    clock = ClockParams(mass=100.0, damping=0.1, n_reset=1.5)
    history = build_history_state(QUBIT, clock, 256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e300, 1e308, -1e308):
            assert wavefunction(x, 0.5, clock) == 0.0
            assert wavefunction(np.array([x, -x]), 0.5, clock).tolist() == [0.0, 0.0]
            unreachable = f"^{re.escape(f'reading x = {x} is unreachable: ')}"
            with pytest.raises(NumericalError, match=unreachable + "unnormalized integral 0.0$"):
                posterior_over_n(x, clock, 64)
            with pytest.raises(NumericalError, match=unreachable + "conditioning weight 0.0$"):
                conditional_system_probability(history, np.array([0.5, x]), HALF)


# Clocks outside the domain rules, each with its rule's message.
SCALES = "hbar, mass, omega must be positive finite numbers, got "
BAD_SCALE_CLOCKS = {
    "mass=-1": ({"damping": 0.5, "n_reset": 1.5, "mass": -1.0}, SCALES + "(1.0, -1.0, 1.0)"),
    "hbar=nan": ({"damping": 0.5, "n_reset": 1.5, "hbar": math.nan}, SCALES + "(nan, 1.0, 1.0)"),
    "omega=0": ({"damping": 0.5, "n_reset": 1.5, "omega": 0.0}, SCALES + "(1.0, 1.0, 0.0)"),
}


@pytest.mark.parametrize("clock", BAD_SCALE_CLOCKS)
def test_bad_scales_raise_typed_errors_wherever_they_are_read(clock):
    assert_refused_when_built(*BAD_SCALE_CLOCKS[clock])


def test_over_damped_clock_raises_typed_errors_wherever_omega_is_read():
    assert_refused_when_built(
        {"damping": 5.0, "n_reset": 0.1},
        "under-damping requires r/2 < omega, got r/2 = 2.5 >= omega = 1.0",
    )


BAD_DAMPING_CLOCKS = {
    "damping=-5": {"damping": -5.0},
    "damping=-0.1": {"damping": -0.1, "n_reset": 1.5},
    "damping=inf": {"damping": math.inf, "n_reset": 1.5},
    "damping=nan": {"damping": math.nan, "n_reset": 1.5},
}


@pytest.mark.parametrize("clock", BAD_DAMPING_CLOCKS)
def test_bad_damping_raises_the_rule_wherever_r_is_read(clock):
    fields = BAD_DAMPING_CLOCKS[clock]
    message = f"damping must be a finite number >= 0, got {fields['damping']}"
    assert_refused_when_built(fields, message)


# A non-finite alpha makes A non-finite, which the amplitude rule refuses.
BAD_ALPHA_CLOCKS = {
    "alpha=nan": ({"alpha": math.nan}, amplitude_message(math.nan)),
    "alpha=inf": ({"alpha": math.inf}, amplitude_message(math.inf)),
}


@pytest.mark.parametrize("clock", BAD_ALPHA_CLOCKS)
def test_bad_alpha_or_phase_raises_the_rule_wherever_alpha_is_read(clock):
    fields, message = BAD_ALPHA_CLOCKS[clock]
    assert_refused_when_built(dict(fields, damping=0.5, n_reset=1.5), message)


@pytest.mark.parametrize("n_reset", [math.nan, math.inf, 0.0, -1.0], ids=lambda v: f"n_reset={v}")
def test_bad_n_reset_raises_the_rule_wherever_n_reset_is_read(n_reset):
    # Each once leaked: "n = 0.05 outside the running window [0, nan]" from
    # the window check, or "n must be finite" from a grid that ends in NaN.
    message = f"n_reset must be a positive finite number, got {n_reset}"
    assert_refused_when_built({"damping": 0.5, "n_reset": n_reset}, message)


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
