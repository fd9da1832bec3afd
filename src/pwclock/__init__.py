"""Damped-oscillator clock simulator.

A library and CLI for treating the position of a damped-oscillator
wavepacket as the time parameter of an entangled finite-dimensional system:
clock closed forms, position-to-time inversion, conditional probabilities
over abstract time, and the evolution-transfer comparison.
"""

from .params import (
    AbstractTime,
    ClockParams,
    SystemSpec,
    ValidationError,
    NumericalError,
    OverDamped,
    ResetTooLate,
    NonPositiveAmplitude,
    NonPositiveScale,
    NegativeDamping,
    NotHermitian,
    NotNormalized,
    DimensionTooSmall,
    InvalidAbstractTime,
    NonPositiveTime,
    UnderDampingViolated,
    OutOfRange,
    NonMonotonicWindow,
    ZeroDamping,
    DegenerateSupport,
    NotAProjector,
    EigenFailure,
    NoValues,
    validate_clock_params,
    validate_system_spec,
    check_abstract_time,
)
from .clock import (
    ClockMoments,
    StationaryDamping,
    wavefunction,
    position_expectation,
    width,
    width_damping_derivative,
    moments,
    decoherence_rate,
    damping_stationary_point,
    recommend_damping,
)
from .timemap import (
    TimeMapResult,
    n_from_x_exact,
    n_from_x_log,
    n_from_x_linear,
    invert_position,
    linearization_report,
)
from .conditional import (
    PosteriorDensity,
    HistoryState,
    position_given_n,
    posterior_over_n,
    ideal_limit_concentration,
    coherent_overlap,
    build_history_state,
    conditional_system_probability,
)
from .evolution import (
    EvolutionComparison,
    EvolutionComparisonTable,
    fidelity,
    evolve_exact,
    evolve_via_clock,
    compare_evolutions,
    default_qubit_spec,
)

__version__ = "0.1.0"
