"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line per
criterion on stdout.
"""

import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import pwclock
from pwclock import (
    ClockParams,
    SystemSpec,
    build_history_state,
    compare_evolutions,
    conditional_system_probability,
    decoherence_rate,
    default_qubit_spec,
    evolve_exact,
    evolve_via_clock,
    fidelity,
    ideal_limit_concentration,
    invert_position,
    n_from_x_exact,
    position_expectation,
    posterior_over_n,
    validate_clock_params,
    width,
)
from pwclock.cli import EXPERIMENTS

from calibration import (
    IDEAL_LIMIT_CROSSING_SCALE,
    IDEAL_LIMIT_SCALES,
    IDEAL_LIMIT_WINDOW,
    LINEAR_REL_ERR_PER_RN,
    NARROW_AMPLITUDE,
    NARROW_DAMPING,
    NARROW_N_RESET,
    NARROW_OMEGA,
    NARROW_PROBE_TIME,
)
from oracles import (
    central_difference,
    expm_state,
    located_rate_extremum,
    loglog_slope,
    quadrature_moments,
    random_clock_params,
    random_invertible_params,
    random_probe_time,
)


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def narrow_clock(mass_omega: float) -> ClockParams:
    params = ClockParams(
        omega=NARROW_OMEGA,
        damping=NARROW_DAMPING,
        n_reset=NARROW_N_RESET,
        mass=mass_omega / NARROW_OMEGA,
    ).with_amplitude(NARROW_AMPLITUDE)
    return validate_clock_params(params)


def test_criterion_1_gaussian_self_consistency():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        params = random_clock_params(rng)
        n = random_probe_time(rng, params)
        mean_expected = position_expectation(n, params)
        width_expected = width(n, params)
        norm, mean_q, std_q = quadrature_moments(params, n, mean_expected, width_expected)
        worst = max(
            worst,
            abs(norm - 1.0),
            abs(mean_q - mean_expected) / abs(mean_expected),
            abs(std_q - width_expected) / width_expected,
        )
    _report(1, "Gaussian self-consistency to 1e-8 over 100 random clocks", worst <= 1e-8,
            f"worst deviation {worst:.2e}")


def test_criterion_2_decoherence_rate_matches_derivative():
    params_base = ClockParams(hbar=1.2, mass=0.8, omega=1.1, n_reset=1.0)
    worst = 0.0
    for r in (0.05, 0.1, 0.2, 0.4, 0.8):
        params = replace(params_base, damping=r, n_reset=1.0 / r)
        for n in (0.3, 0.7, 1.3, 2.1):
            def squared_width_scale(t, r=r):
                return math.exp(-r * t) * params_base.hbar / (
                    params_base.mass * params_base.omega
                )

            fd = abs(central_difference(squared_width_scale, n, 1e-5))
            rel = abs(decoherence_rate(n, params) - fd) / fd
            worst = max(worst, rel)
    _report(2, "decoherence rate matches finite difference to 1e-6 on 20-point lattice",
            worst <= 1e-6, f"worst relative deviation {worst:.2e}")


def test_criterion_3_stationary_damping():
    from pwclock import damping_stationary_point

    params = ClockParams(n_reset=1.0)
    worst = 0.0
    kinds = set()
    for n in (0.75, 1.0, 2.0, 4.0):
        located = located_rate_extremum(n, params)
        worst = max(worst, abs(located * n - 1.0))
        kinds.add(damping_stationary_point(n, params).classification)
    ok = worst <= 1e-6 and kinds == {"maximum"}
    _report(3, "rate extremum along damping sits at r*n = 1 (classified maximum)",
            ok, f"worst |r*n - 1| = {worst:.2e}, classification {sorted(kinds)}")


def test_criterion_4_time_map_round_trip():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        params = random_invertible_params(rng)
        n_true = rng.uniform(0.0, params.n_reset * 0.999)
        x = position_expectation(n_true, params)
        residual = abs(position_expectation(n_from_x_exact(x, params), params) - x)
        worst = max(worst, residual)
    _report(4, "time-map round trip residual <= 1e-10 over 100 random configs",
            worst <= 1e-10, f"worst residual {worst:.2e}")


def test_criterion_5_linearization_scaling():
    params = validate_clock_params(ClockParams(omega=1.0, damping=0.5, n_reset=1.5, alpha=1.0))
    rn_values = np.logspace(-3, -1, 9)
    rel_errors = []
    bounded = True
    for rn in rn_values:
        result = invert_position(position_expectation(rn / params.damping, params), params)
        rel_errors.append(result.rel_error_linear)
        bounded = bounded and result.rel_error_linear <= LINEAR_REL_ERR_PER_RN * rn
    slope = loglog_slope(rn_values, rel_errors)
    ok = 0.8 <= slope <= 1.2 and bounded
    _report(5, "linear inversion error is O(r*n) within the calibrated bound",
            ok, f"slope {slope:.3f}, bound constant {LINEAR_REL_ERR_PER_RN}")


def test_criterion_6_ideal_clock_limit():
    fractions = []
    norm_ok = True
    for scale in IDEAL_LIMIT_SCALES:
        params = narrow_clock(scale)
        x = position_expectation(NARROW_PROBE_TIME, params)
        fractions.append(ideal_limit_concentration(x, params, IDEAL_LIMIT_WINDOW, 4096))
        posterior = posterior_over_n(x, params, 4096)
        norm_ok = norm_ok and abs(np.trapezoid(posterior.density, posterior.grid) - 1.0) <= 1e-9
    monotone = all(b > a for a, b in zip(fractions, fractions[1:]))
    crossing = fractions[IDEAL_LIMIT_SCALES.index(IDEAL_LIMIT_CROSSING_SCALE)] >= 0.99
    ok = monotone and crossing and norm_ok
    _report(6, "posterior mass concentrates as the clock narrows, crossing 0.99",
            ok, "fractions " + ", ".join(f"{f:.4f}" for f in fractions))


def test_criterion_7_evolution_transfer():
    spec = default_qubit_spec()
    rn_values = np.logspace(-3, -1, 9)
    losses = []
    for rn in rn_values:
        r = float(rn)  # probe time n = 1, r = 1/n_reset
        params = validate_clock_params(
            ClockParams(omega=2.0 * r, damping=r, n_reset=1.0 / r, alpha=1.0)
        )
        x = position_expectation(1.0, params)
        losses.append(1.0 - fidelity(evolve_exact(spec, 1.0), evolve_via_clock(spec, x, params)))
    slope = loglog_slope(rn_values, losses)

    table = compare_evolutions(
        spec, validate_clock_params(ClockParams(damping=0.5, n_reset=2.0, alpha=1.0)), 64
    )
    origin_exact = table.fidelity[0] == 1.0

    trivial = SystemSpec(
        dim=2,
        hamiltonian=np.zeros((2, 2), dtype=complex),
        initial_state=np.array([1.0, 0.0], dtype=complex),
    )
    trivial_table = compare_evolutions(
        trivial, validate_clock_params(ClockParams(damping=0.5, n_reset=2.0, alpha=1.0)), 64
    )
    trivial_ok = bool(np.all(trivial_table.fidelity == 1.0))

    ok = 1.6 <= slope <= 2.4 and origin_exact and trivial_ok
    _report(7, "evolution transfer: infidelity is O((r*n)^2), exact at origin",
            ok, f"slope {slope:.3f}")


def test_criterion_8_oracle_equivalence():
    spec = default_qubit_spec()
    params = narrow_clock(10000.0)
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    proj_plus = np.outer(plus, plus.conj())
    proj_minus = np.eye(2, dtype=complex) - proj_plus

    history = build_history_state(spec, params, 2048)
    history_fine = build_history_state(spec, params, 4096)

    worst_err = 0.0
    worst_sum = 0.0
    worst_shift = 0.0
    for n in (0.4, 0.6, 0.9, 1.2):
        x = position_expectation(n, params)
        evolved = expm_state(spec, n_from_x_exact(x, params))
        exact_plus = abs(np.vdot(plus, evolved)) ** 2
        got_plus = conditional_system_probability(history, x, proj_plus)
        got_minus = conditional_system_probability(history, x, proj_minus)
        worst_err = max(
            worst_err, abs(got_plus - exact_plus), abs(got_minus - (1.0 - exact_plus))
        )
        worst_sum = max(worst_sum, abs(got_plus + got_minus - 1.0))
        worst_shift = max(
            worst_shift,
            abs(conditional_system_probability(history_fine, x, proj_plus) - got_plus),
        )
    ok = worst_err <= 1e-3 and worst_sum <= 1e-12 and worst_shift <= 1e-6
    _report(8, "history-state oracle matches exact evolution in the narrow-clock regime",
            ok, f"worst error {worst_err:.2e}, complement {worst_sum:.1e}, refinement {worst_shift:.1e}")


def test_criterion_9_determinism(tmp_path):
    """Two fresh ``pwclock.cli all`` processes write the same CSV bytes.

    Each child gets a minimal environment, so no variable of the caller can
    reach the run. Its one addition is ``PYTHONPATH``, set to the directory
    that holds the ``pwclock`` this test imported: the children then run the
    same code as the parent, from ``src/`` or from an install, whatever
    directory pytest starts in. ``-B`` keeps the children from writing
    bytecode caches next to that source. The thread counts varied are BLAS's,
    because pwclock starts no threads of its own while its conditioning
    contractions and ``eigh`` go through BLAS.
    """
    package_root = Path(pwclock.__file__).resolve().parent.parent
    expected = {f"{name}.csv" for name in EXPERIMENTS}
    outputs = []
    for tag, threads in (("a", "1"), ("b", "2")):
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "pwclock.cli", "all", "--out", str(out)],
            capture_output=True,
            text=True,
            env={
                "PATH": "/usr/bin:/bin:/usr/local/bin",
                "PYTHONPATH": str(package_root),
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
            },
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append({path.name: path.read_bytes() for path in out.glob("*.csv")})
    first, second = outputs
    differing = sorted(name for name in first.keys() & second.keys() if first[name] != second[name])
    ok = first.keys() == second.keys() == expected and not differing
    _report(9, "full bundle reproduces bit-identical CSVs across processes and BLAS thread counts", ok,
            f"run a wrote {sorted(first)}, run b wrote {sorted(second)}, differing {differing}")
