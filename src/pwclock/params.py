"""Domain types, unit conventions and validation shared by all modules.

Natural units (hbar = mass = omega = 1) are the documented default, but every
formula keeps the symbols so non-default values are exercised in tests.
Abstract time ``n`` is carried as a plain float or an array of floats;
``check_abstract_time`` enforces membership in the clock's running window.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field, replace
from math import inf, log10, sqrt

import numpy as np

__all__ = [
    "ClockParams",
    "SystemSpec",
    "ValidationError",
    "NumericalError",
]

class ValidationError(ValueError):
    """An input violates a documented invariant."""


class NumericalError(RuntimeError):
    """A computation failed or degenerated despite valid inputs."""


@dataclass(frozen=True)
class ClockParams:
    """Physical constants and damping/reset configuration of the clock.

    ``validate_clock_params`` checks every clock when it is made, so a
    ClockParams outside the domain rules cannot exist. Each field is stored
    as a float; a value of another type (a bool, a string, a list, a
    complex) raises ValidationError naming the field.

    Parameters
    ----------
    hbar : float
        Action scale (natural units default 1).
    mass : float
        Oscillator mass, > 0.
    omega : float
        Undamped angular frequency in rad per abstract-time unit, > 0.
    damping : float
        Damping coefficient r >= 0, in inverse abstract time.
    alpha : float
        Coherent-state parameter, real: the clock starts at the turning
        point <x>(0) = A, which every closed form assumes.
    n_reset : float
        Reset horizon: the clock is rewound after this span of abstract
        time. Must satisfy 0 < n_reset <= 1/r when r > 0.
    """

    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0
    damping: float = 0.0
    alpha: float = 1.0
    n_reset: float = 1.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():  # + 0.0 stores a -0.0 as 0.0
            object.__setattr__(self, name, _real(name, value) + 0.0)
        validate_clock_params(self)

    @property
    def damped_frequency(self) -> float:
        """Oscillation frequency with damping, sqrt(omega**2 - r**2/4)."""
        return sqrt(self.omega**2 - self.damping**2 / 4.0)

    @property
    def amplitude(self) -> float:
        """Undamped oscillation amplitude A = sqrt(2*hbar/(m*omega)) * alpha."""
        return _amplitude_unit(self.hbar, self.mass, self.omega) * self.alpha

    def with_amplitude(self, amplitude: float, **changes) -> "ClockParams":
        """Copy of these params with the field ``changes`` made and alpha set so that A
        equals `amplitude`, which must be > 0. The copy is built, and checked, once."""
        merged = {name: _real(name, value) for name, value in dict(vars(self), **changes).items()}
        amplitude = _real("amplitude", amplitude)
        _finite("amplitude", amplitude)  # named here, before it becomes alpha
        try:
            alpha = amplitude / _amplitude_unit(merged["hbar"], merged["mass"], merged["omega"])
        except (ZeroDivisionError, ValueError):  # scales that a rule refuses, in the copy too
            alpha = 0.0
        return replace(self, **changes, alpha=alpha)


def _amplitude_unit(hbar: float, mass: float, omega: float) -> float:
    """sqrt(2*hbar/(m*omega)), the amplitude A per unit alpha."""
    return sqrt(2.0 * hbar / (mass * omega))


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Finite-dimensional Hermitian generator and initial state of the system.

    The generator plays the role of the system Hamiltonian (energy units,
    natural units); the initial state is a unit vector whose length is the
    dimension d >= 2. Arrays are stored read-only, and ``validate_system_spec``
    checks every spec when it is made, by ``dataclasses.replace`` too, so a
    spec is valid and safe to share. A spec compares and hashes by identity,
    as its array fields have no truth value.
    """

    hamiltonian: np.ndarray = field(repr=False)
    initial_state: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        h = np.array(_floats("hamiltonian", self.hamiltonian, complex_ok=True), dtype=complex)
        psi = np.array(_floats("initial_state", self.initial_state, complex_ok=True),
                       dtype=complex).reshape(-1)
        h.setflags(write=False)
        psi.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "initial_state", psi)
        validate_system_spec(self)


def validate_clock_params(params: ClockParams) -> ClockParams:
    """Check all ClockParams invariants; return the params unchanged.

    ``ClockParams`` calls it when it is made, by ``dataclasses.replace`` and
    ``with_amplitude`` too, so no invalid clock exists. Non-finite values fail
    the check of their field.

    Raises
    ------
    ValidationError
        If a scale or n_reset is not > 0, r < 0, r/2 >= omega (over-damped),
        n_reset > 1/r, m*omega underflows to 0, A is not a finite number
        > 0 (a non-finite alpha included), or omega**2 overflows.
    """
    hbar, mass, omega = params.hbar, params.mass, params.omega
    if not (0.0 < hbar < inf and 0.0 < mass < inf and 0.0 < omega < inf):  # NaN fails
        raise ValidationError(
            f"hbar, mass, omega must be positive finite numbers, got ({hbar}, {mass}, {omega})"
        )
    n_reset, r = params.n_reset, params.damping
    if not 0.0 < n_reset < inf:  # NaN fails
        raise ValidationError(f"n_reset must be a positive finite number, got {n_reset}")
    if not 0.0 <= r < inf:  # NaN fails
        raise ValidationError(f"damping must be a finite number >= 0, got {r}")
    if not r / 2.0 < omega:
        raise ValidationError(
            f"under-damping requires r/2 < omega, got r/2 = {r / 2.0} >= omega = {omega}"
        )
    if r > 0.0 and n_reset > 1.0 / r:
        raise ValidationError(
            f"n_reset = {n_reset} exceeds the running-time limit 1/r = {1.0 / r}"
        )
    if not mass * omega > 0.0:
        raise ValidationError(f"m*omega underflows to 0, got mass = {mass}, omega = {omega}")
    amplitude = params.amplitude
    if not 0.0 < amplitude < inf:  # NaN fails
        raise ValidationError(
            f"amplitude sqrt(2*hbar/(m*omega))*alpha = {amplitude} "
            "must be a finite number > 0 for the time-map inversion"
        )
    if not omega * omega < inf:
        raise ValidationError(f"omega**2 overflows, got omega = {omega}")
    return params


def validate_system_spec(spec: SystemSpec) -> SystemSpec:
    """Check finiteness, Hermiticity, normalization and shapes; return spec unchanged.

    ``SystemSpec`` calls it when it is made, so no invalid spec exists. The
    dimension d is the length of the initial state.

    Raises
    ------
    ValidationError
        If d < 2, the generator is not d x d, or the generator or the state
        has a non-finite entry, or is not Hermitian or not normalized within
        1e-12.
    """
    h, psi = spec.hamiltonian, spec.initial_state
    d = psi.size
    if d < 2:
        raise ValidationError(f"system dimension must be >= 2, got {d}")
    if h.shape != (d, d):
        raise ValidationError(f"generator must be {d}x{d}, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValidationError("generator has non-finite entries")
    if not np.all(np.abs(h - h.conj().T) <= 1e-12):
        raise ValidationError("generator is not Hermitian within 1e-12 entrywise")
    if not np.all(np.isfinite(psi)):
        raise ValidationError("initial state has non-finite entries")
    norm = sqrt(psi.real @ psi.real + psi.imag @ psi.imag)
    if abs(norm - 1.0) > 1e-12:
        raise ValidationError(f"initial state norm {norm} is not 1 within 1e-12")
    return spec


def _is_number(value) -> bool:
    """True for a real number, numpy's included; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _shown(value) -> str:
    """``value`` as an error message shows it: its repr, or the digit count of an int beyond
    the float range, worked out without ``str``, which refuses an int of over 4300 digits.
    A list, tuple or dict is shown one element at a time."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_shown(k)}: {_shown(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        inner = ", ".join(map(_shown, value))
        return f"[{inner}]" if isinstance(value, list) else f"({inner}{',' * (len(value) == 1)})"
    size = abs(value) if isinstance(value, int) else 0
    if size <= sys.float_info.max:
        return repr(value)
    digits = int(log10(size)) + 1  # log10 may round across a power of ten
    digits += (size >= 10**digits) - (size < 10 ** (digits - 1))
    return f"{'a negative' if value < 0 else 'an'} int of {digits} digits"


def _real(name: str, value) -> float:
    """``value`` as a float; a bool, a non-number or a too large int raises ValidationError."""
    if not _is_number(value):
        raise ValidationError(f"{name} must be a number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{name} must be a finite number, got {_shown(value)}") from None


_MAX_SIZE = 2**24  # largest grid size or reading count; a larger one fails by name


def _checked_whole(name: str, value, minimum: int, maximum: int | None = _MAX_SIZE) -> int:
    """``value`` as an int if a whole number in [minimum, maximum] (None: no ceiling), else
    ValidationError."""
    try:
        number = int(value) if _is_number(value) else None
    except (ValueError, OverflowError):  # NaN or infinity
        number = None
    if number is None or number != value:
        raise ValidationError(f"{name} must be a whole number, got {_shown(value)}")
    if number < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {_shown(value)}")
    if maximum is not None and number > maximum:
        raise ValidationError(f"{name} must be <= {maximum}, got {_shown(value)}")
    return number


def _scalar_or_array(out):
    """``out`` itself for an array result, its Python float, complex or str for a 0-d one."""
    return out if out.ndim else out.item()


def _require(values, inside, error) -> None:
    """Raise ``error(v, i)`` at the first False in ``inside``, in C order: v is the value
    there, as a float, and i its flat index."""
    inside = np.asarray(inside).reshape(-1)
    if not inside.all():
        index = int(np.argmin(inside))
        raise error(float(np.asarray(values, dtype=float).reshape(-1)[index]), index)


def _floats(name: str, values, complex_ok: bool = False) -> np.ndarray:
    """``values`` as a float64 array, or where ``complex_ok`` a complex128 one for complex
    values, itself if it is one; ValidationError names ``name`` unless its dtype is an integer
    or float one, or a complex one where ``complex_ok`` (a bool, str or object is not), and
    where it is ragged, a nested sequence numpy cannot make one array of."""
    kinds, numbers = ("iufc", "numbers") if complex_ok else ("iuf", "real numbers")
    try:
        values = np.asarray(values)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise ValidationError(f"{name} must be {numbers}, got a ragged sequence") from None
    if values.dtype.kind not in kinds:
        raise ValidationError(f"{name} must be {numbers}, got dtype {values.dtype}")
    return values.astype(complex if values.dtype.kind == "c" else float, copy=False)


def _finite(name: str, values) -> np.ndarray:
    """``values`` as a float array; ValidationError names the first non-finite one."""
    values = _floats(name, values)
    _require(values, np.isfinite(values), lambda v, _: ValidationError(
        f"{name} must be finite, got {v}"))
    return values


def _shapes_fit(names: str, *values, holds: bool = True) -> None:
    """Raise ValidationError naming ``names`` with the values' shapes unless they broadcast
    together and ``holds``."""
    shapes = [np.shape(value) for value in values]
    try:
        np.broadcast_shapes(*shapes)
    except ValueError:
        holds = False
    if not holds:
        raise ValidationError(f"{names} do not match: shapes {' and '.join(map(str, shapes))}")


def _overflow_checked(name: str, values, form: str, formula):
    """``formula(values)`` as a scalar or array, with no warning; ValidationError names the
    first of ``values`` at which the result, the closed form ``form``, is not finite."""
    with np.errstate(all="ignore"):
        out = np.asarray(formula(values))
    _require(values, np.isfinite(out), lambda v, _: ValidationError(f"{name} = {v} overflows {form}"))
    return _scalar_or_array(out)


def check_abstract_time(n, params: ClockParams):
    """Require 0 <= n <= n_reset for a time or every time in an array; return n.

    The reset point itself is admitted so quadrature grids can close the
    running window. NaN is rejected.
    """
    times, n_reset = _floats("n", n), params.n_reset
    window = f"the running window [0, {n_reset}]"
    inside = (times >= 0.0) & (times <= n_reset)
    _require(times, inside, lambda v, _: ValidationError(f"n = {v} outside {window}"))
    return n
