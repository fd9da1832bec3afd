"""Domain types, unit conventions and validation shared by all modules.

Natural units (hbar = mass = omega = 1) are the documented default, but every
formula keeps the symbols so non-default values are exercised in tests.
Abstract time ``n`` is carried as a plain float or an array of floats;
``check_abstract_time`` enforces membership in the clock's running window.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from math import inf, isfinite, sqrt

import numpy as np

__all__ = [
    "ClockParams",
    "SystemSpec",
    "ValidationError",
    "NumericalError",
    "OutOfRange",
    "validate_clock_params",
    "validate_system_spec",
    "check_abstract_time",
]

class ValidationError(ValueError):
    """An input violates a documented invariant."""


class NumericalError(RuntimeError):
    """A computation failed or degenerated despite valid inputs."""


class OutOfRange(ValidationError):
    """Position reading outside the interval attained by the clock."""


@dataclass(frozen=True)
class ClockParams:
    """Physical constants and damping/reset configuration of the clock.

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
    alpha : complex
        Coherent-state parameter. Only Re(alpha) enters the position
        expectation; Im(alpha) is stored but affects no shipped quantity.
    n_reset : float
        Reset horizon: the clock is rewound after this span of abstract
        time. Must satisfy 0 < n_reset <= 1/r when r > 0.
    phase : float
        Global phase of the wavefunction. It cancels from every probability
        and density exactly, not only to rounding: they are computed from the
        real envelope of the amplitude and never multiply it in.
    """

    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0
    damping: float = 0.0
    alpha: complex = 1.0 + 0.0j
    n_reset: float = 1.0
    phase: float = 0.0

    @property
    def damped_frequency(self) -> float:
        """Oscillation frequency with damping, sqrt(omega**2 - r**2/4); needs r/2 < omega."""
        r = self._damping()
        if not r / 2.0 < self.omega:
            raise ValidationError(
                f"under-damping requires r/2 < omega, got r/2 = {r / 2.0}"
                f" >= omega = {self.omega}"
            )
        return sqrt(self.omega**2 - r**2 / 4.0)

    @property
    def amplitude(self) -> float:
        """Undamped oscillation amplitude A = sqrt(2*hbar/(m*omega)) * Re(alpha)."""
        hbar, m_omega = self._scales()
        return sqrt(2.0 * hbar / m_omega) * self._alpha().real

    def with_amplitude(self, amplitude: float) -> "ClockParams":
        """Copy of these params with Re(alpha) set so A equals `amplitude`."""
        hbar, m_omega = self._scales()
        re = amplitude / sqrt(2.0 * hbar / m_omega)
        return replace(self, alpha=complex(re, self._alpha().imag))

    def _scales(self) -> tuple[float, float]:
        """(hbar, m*omega); ValidationError unless hbar, m and omega are positive finite."""
        hbar, mass, omega = self.hbar, self.mass, self.omega
        if not (0.0 < hbar < inf and 0.0 < mass < inf and 0.0 < omega < inf):  # NaN fails
            raise ValidationError(
                f"hbar, mass, omega must be positive finite numbers, got ({hbar}, {mass}, {omega})"
            )
        return hbar, mass * omega

    def _damping(self) -> float:
        """r; ValidationError unless r is a finite number >= 0."""
        r = self.damping
        if not 0.0 <= r < inf:  # NaN fails
            raise ValidationError(f"damping must be a finite number >= 0, got {r}")
        return r

    def _n_reset(self) -> float:
        """n_reset; ValidationError unless it is a positive finite number."""
        if not 0.0 < self.n_reset < inf:  # NaN fails
            raise ValidationError(f"n_reset must be a positive finite number, got {self.n_reset}")
        return self.n_reset

    def _alpha(self) -> complex:
        """alpha as a complex; ValidationError unless alpha and phase are finite."""
        alpha = complex(self.alpha)
        if not (isfinite(alpha.real) and isfinite(alpha.imag) and isfinite(self.phase)):
            raise ValidationError(
                f"alpha and phase must be finite, got alpha = {self.alpha}, phase = {self.phase}"
            )
        return alpha


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Finite-dimensional Hermitian generator and initial state of the system.

    The generator plays the role of the system Hamiltonian (energy units,
    natural units); the initial state is a unit vector of matching dimension.
    Arrays are stored read-only so validated specs are safe to share. A spec
    compares and hashes by identity, as its array fields have no truth value.
    """

    dim: int
    hamiltonian: np.ndarray = field(repr=False)
    initial_state: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        h = np.array(self.hamiltonian, dtype=np.complex128)
        psi = np.array(self.initial_state, dtype=np.complex128).reshape(-1)
        h.setflags(write=False)
        psi.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "initial_state", psi)


def validate_clock_params(params: ClockParams) -> ClockParams:
    """Check all ClockParams invariants; return the params unchanged.

    Non-finite values fail the check of their field.

    Raises
    ------
    ValidationError
        If a scale or n_reset is not > 0, r < 0, alpha or phase is not
        finite, r/2 >= omega (over-damped), n_reset > 1/r, or A <= 0.
    """
    params._scales()  # raises unless hbar, mass and omega are positive finite numbers
    n_reset = params._n_reset()  # raises unless n_reset is a positive finite number
    r = params._damping()  # raises unless r is a finite number >= 0
    params._alpha()  # raises unless alpha and phase are finite
    params.damped_frequency  # raises unless r/2 < omega
    if r > 0.0 and n_reset > 1.0 / r:
        raise ValidationError(
            f"n_reset = {n_reset} exceeds the running-time limit 1/r = {1.0 / r}"
        )
    amplitude = params.amplitude
    if not np.isfinite(amplitude) or amplitude <= 0.0:
        raise ValidationError(
            f"amplitude sqrt(2*hbar/(m*omega))*Re(alpha) = {amplitude} "
            "must be > 0 for the time-map inversion"
        )
    return params


def validate_system_spec(spec: SystemSpec) -> SystemSpec:
    """Check finiteness, Hermiticity, normalization and dimension; return spec unchanged.

    Raises
    ------
    ValidationError
        If d < 2, or the generator or the state has the wrong shape, a
        non-finite entry, or is not Hermitian or not normalized within 1e-12.
    """
    if spec.dim < 2:
        raise ValidationError(f"system dimension must be >= 2, got {spec.dim}")
    h = spec.hamiltonian
    if h.shape != (spec.dim, spec.dim):
        raise ValidationError(f"generator must be {spec.dim}x{spec.dim}, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValidationError("generator has non-finite entries")
    if not np.all(np.abs(h - h.conj().T) <= 1e-12):
        raise ValidationError("generator is not Hermitian within 1e-12 entrywise")
    psi = spec.initial_state
    if psi.shape != (spec.dim,):
        raise ValidationError(f"initial state must have length {spec.dim}, got {psi.shape}")
    if not np.all(np.isfinite(psi)):
        raise ValidationError("initial state has non-finite entries")
    norm = sqrt(psi.real @ psi.real + psi.imag @ psi.imag)
    if abs(norm - 1.0) > 1e-12:
        raise ValidationError(f"initial state norm {norm} is not 1 within 1e-12")
    return spec


def _is_number(value) -> bool:
    """True for a real number, numpy's included; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


_MAX_SIZE = 2**24  # largest grid size or reading count; a larger one fails by name


def _checked_whole(name: str, value, minimum: int, maximum: int | None = _MAX_SIZE) -> int:
    """``value`` as an int if a whole number in [minimum, maximum] (None: no ceiling), else
    ValidationError."""
    try:
        number = int(value) if _is_number(value) else None
    except (ValueError, OverflowError):  # NaN or infinity
        number = None
    if number is None or number != value:
        raise ValidationError(f"{name} must be a whole number, got {value!r}")
    if number < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value!r}")
    if maximum is not None and number > maximum:
        raise ValidationError(f"{name} must be <= {maximum}, got {value!r}")
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


def _finite(name: str, values) -> np.ndarray:
    """``values`` as a float array; ValidationError names the first non-finite one."""
    values = np.asarray(values, dtype=float)
    _require(values, np.isfinite(values), lambda v, _: ValidationError(
        f"{name} must be finite, got {v}"))
    return values


def check_abstract_time(n, params: ClockParams):
    """Require 0 <= n <= n_reset for a time or every time in an array; return n.

    The reset point itself is admitted so quadrature grids can close the
    running window. NaN is rejected, and so is an n_reset outside its rule.
    """
    times, n_reset = np.asarray(n, dtype=float), params._n_reset()
    window = f"the running window [0, {n_reset}]"
    inside = (times >= 0.0) & (times <= n_reset)
    _require(times, inside, lambda v, _: ValidationError(f"n = {v} outside {window}"))
    return n
