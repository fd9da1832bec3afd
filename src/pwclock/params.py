"""Domain types, unit conventions and validation shared by all modules.

Natural units (hbar = mass = omega = 1) are the documented default, but every
formula keeps the symbols so non-default values are exercised in tests.
Abstract time ``n`` is carried as a plain float or an array of floats;
``check_abstract_time`` enforces membership in the clock's running window.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from math import sqrt

import numpy as np

__all__ = [
    "ClockParams",
    "SystemSpec",
    "ValidationError",
    "NumericalError",
    "OverDamped",
    "ResetTooLate",
    "NonPositiveAmplitude",
    "NonPositiveScale",
    "NegativeDamping",
    "NotHermitian",
    "NotNormalized",
    "DimensionTooSmall",
    "InvalidAbstractTime",
    "NonPositiveTime",
    "UnderDampingViolated",
    "OutOfRange",
    "NonMonotonicWindow",
    "ZeroDamping",
    "DegenerateSupport",
    "NotAProjector",
    "EigenFailure",
    "NoValues",
    "validate_clock_params",
    "validate_system_spec",
    "check_abstract_time",
]

class ValidationError(ValueError):
    """An input violates a documented invariant."""


class NumericalError(RuntimeError):
    """A computation failed or degenerated despite valid inputs."""


class OverDamped(ValidationError):
    """Damping r/2 >= omega, so the damped frequency is not real."""


class ResetTooLate(ValidationError):
    """Reset horizon exceeds 1/r, the limit on the running time."""


class NonPositiveAmplitude(ValidationError):
    """Oscillation amplitude A = sqrt(2*hbar/(m*omega)) * Re(alpha) <= 0."""


class NonPositiveScale(ValidationError):
    """A scale that must be positive (hbar, mass, omega, n_reset) is not."""


class NegativeDamping(ValidationError):
    """Damping coefficient r < 0."""


class NotHermitian(ValidationError):
    """Generator matrix is not equal to its conjugate transpose."""


class NotNormalized(ValidationError):
    """Initial state vector does not have unit norm."""


class DimensionTooSmall(ValidationError):
    """System dimension d < 2."""


class InvalidAbstractTime(ValidationError):
    """Abstract time outside the clock's running window."""


class NonPositiveTime(ValidationError):
    """An operation requiring n > 0 received n <= 0."""


class UnderDampingViolated(ValidationError):
    """Recommended damping 1/n_reset would break r/2 < omega."""


class OutOfRange(ValidationError):
    """Position reading outside the interval attained by the clock."""


class NonMonotonicWindow(ValidationError):
    """Omega * n_reset >= pi/2: the position map may not be invertible."""


class ZeroDamping(ValidationError):
    """Operation undefined for r = 0 (use the exact inversion instead)."""


class DegenerateSupport(NumericalError):
    """Conditioning position is unreachable: all densities underflow."""


class NotAProjector(ValidationError):
    """Matrix is not Hermitian idempotent within tolerance."""


class EigenFailure(NumericalError):
    """Eigendecomposition did not converge (malformed matrix)."""


class NoValues(ValidationError):
    """A sweep was requested with an empty value list."""


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
        """Oscillation frequency with damping, sqrt(omega**2 - r**2/4)."""
        return sqrt(self.omega**2 - self.damping**2 / 4.0)

    @property
    def amplitude(self) -> float:
        """Undamped oscillation amplitude A = sqrt(2*hbar/(m*omega)) * Re(alpha)."""
        return sqrt(2.0 * self.hbar / (self.mass * self.omega)) * self.alpha.real

    def with_amplitude(self, amplitude: float) -> "ClockParams":
        """Copy of these params with Re(alpha) set so A equals `amplitude`."""
        re = amplitude / sqrt(2.0 * self.hbar / (self.mass * self.omega))
        return replace(self, alpha=complex(re, complex(self.alpha).imag))


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

    def rescaled_hamiltonian(self, params: ClockParams) -> np.ndarray:
        """Generator rescaled for clock-position evolution, 2*H/(r*A).

        Undefined for an undamped clock (r = 0).
        """
        if params.damping == 0.0:
            raise ZeroDamping("rescaled generator requires damping r > 0")
        return 2.0 * self.hamiltonian / (params.damping * params.amplitude)


def validate_clock_params(params: ClockParams) -> ClockParams:
    """Check all ClockParams invariants; return the params unchanged.

    Non-finite values fail the check of their field.

    Raises
    ------
    NonPositiveScale, NegativeDamping, OverDamped, ResetTooLate,
    NonPositiveAmplitude, ValidationError
    """
    scales = (params.hbar, params.mass, params.omega)
    if not np.all(np.isfinite(scales)) or min(scales) <= 0.0:
        raise NonPositiveScale(
            f"hbar, mass, omega must be positive finite numbers, got "
            f"({params.hbar}, {params.mass}, {params.omega})"
        )
    if not np.isfinite(params.n_reset) or params.n_reset <= 0.0:
        raise NonPositiveScale(f"n_reset must be a positive finite number, got {params.n_reset}")
    if not np.isfinite(params.damping) or params.damping < 0.0:
        raise NegativeDamping(f"damping must be a finite number >= 0, got {params.damping}")
    if not np.isfinite(complex(params.alpha)) or not np.isfinite(params.phase):
        raise ValidationError(
            f"alpha and phase must be finite, got alpha = {params.alpha}, phase = {params.phase}"
        )
    if params.damping / 2.0 >= params.omega:
        raise OverDamped(
            f"under-damping requires r/2 < omega, got r/2 = {params.damping / 2.0}"
            f" >= omega = {params.omega}"
        )
    if params.damping > 0.0 and params.n_reset > 1.0 / params.damping:
        raise ResetTooLate(
            f"n_reset = {params.n_reset} exceeds the running-time limit "
            f"1/r = {1.0 / params.damping}"
        )
    if not np.isfinite(params.amplitude) or params.amplitude <= 0.0:
        raise NonPositiveAmplitude(
            f"amplitude sqrt(2*hbar/(m*omega))*Re(alpha) = {params.amplitude} "
            "must be > 0 for the time-map inversion"
        )
    return params


def validate_system_spec(spec: SystemSpec) -> SystemSpec:
    """Check finiteness, Hermiticity, normalization and dimension; return spec unchanged.

    Raises
    ------
    DimensionTooSmall, NotHermitian, NotNormalized
    """
    if spec.dim < 2:
        raise DimensionTooSmall(f"system dimension must be >= 2, got {spec.dim}")
    h = spec.hamiltonian
    if h.shape != (spec.dim, spec.dim):
        raise NotHermitian(f"generator must be {spec.dim}x{spec.dim}, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise NotHermitian("generator has non-finite entries")
    if not np.all(np.abs(h - h.conj().T) <= 1e-12):
        raise NotHermitian("generator is not Hermitian within 1e-12 entrywise")
    psi = spec.initial_state
    if psi.shape != (spec.dim,):
        raise NotNormalized(f"initial state must have length {spec.dim}, got {psi.shape}")
    if not np.all(np.isfinite(psi)):
        raise NotNormalized("initial state has non-finite entries")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-12:
        raise NotNormalized(f"initial state norm {np.linalg.norm(psi)} is not 1 within 1e-12")
    return spec


def _is_number(value) -> bool:
    """True for a real number, numpy's included; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


_MAX_SIZE = 2**24  # largest grid size or reading count; a larger one fails by name


def _checked_whole(name: str, value, minimum: int, maximum: int | None = _MAX_SIZE) -> int:
    """``value`` as an int if a whole number in [minimum, maximum] (None: no ceiling), else
    ValidationError."""
    if not _is_number(value):
        raise ValidationError(f"{name} must be a whole number, got {value!r}")
    try:
        number = int(value)
    except (ValueError, OverflowError) as exc:  # NaN or infinity
        raise ValidationError(f"{name} must be a whole number, got {value!r}") from exc
    if number != value:
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


def check_abstract_time(n, params: ClockParams):
    """Require 0 <= n <= n_reset for a time or every time in an array; return n.

    The reset point itself is admitted so quadrature grids can close the
    running window. NaN is rejected.
    """
    times = np.asarray(n, dtype=float)
    window = f"the running window [0, {params.n_reset}]"
    inside = (times >= 0.0) & (times <= params.n_reset)
    _require(times, inside, lambda v, _: InvalidAbstractTime(f"n = {v} outside {window}"))
    return n
