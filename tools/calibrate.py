#!/usr/bin/env python3
"""Calibration sweeps behind the frozen constants in tests/calibration.py.

Run from the repository root:

    python3 tools/calibrate.py

and copy any changed values into tests/calibration.py by hand.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import pwclock as pw


def linear_error_sweep() -> None:
    params = pw.ClockParams(omega=1.0, damping=0.5, n_reset=1.5, alpha=1.0)
    rn_values = np.logspace(-3, -1, 9)
    rel_errors = []
    for rn in rn_values:
        n = rn / params.damping
        x = pw.position_expectation(n, params)
        rel_errors.append(pw.invert_position(x, params).rel_error_linear)
    rel_errors = np.array(rel_errors)
    slope = np.polyfit(np.log(rn_values), np.log(rel_errors), 1)[0]
    print("linear-inversion sweep (r = omega/2):")
    print(f"  log-log slope            : {slope:.4f}")
    print(f"  max rel_err / rn         : {np.max(rel_errors / rn_values):.4f}")
    print(f"  rel_err at rn = 0.1      : {rel_errors[-1]:.4f}")


def concentration_ladder() -> None:
    base = pw.ClockParams(omega=1.0, damping=0.1, n_reset=1.5, alpha=np.sqrt(0.5))
    print("ideal-limit ladder (amplitude 1, window 0.05, reading at n = 0.5):")
    for scale in (10.0, 100.0, 1000.0, 10000.0):
        scaled = base.with_amplitude(1.0, mass=scale / base.omega)
        x = pw.position_expectation(0.5, scaled)
        fraction = pw.ideal_limit_concentration(x, scaled, 0.05, 4096)
        print(f"  m*omega = {scale:>8.0f}: mass fraction = {fraction:.5f}")


def worst_row_fidelity() -> None:
    params = pw.ClockParams(omega=1.0, damping=0.5, n_reset=2.0)
    table = pw.compare_evolutions(pw.default_qubit_spec(), params, 128)
    print(f"worst-row fidelity (default comparison): {table.worst_fidelity:.5f}")


def fidelity_loss_prefactor() -> None:
    params = pw.ClockParams(omega=1.0, damping=0.5, n_reset=2.0)
    spec = pw.default_qubit_spec()
    h_norm = float(np.linalg.norm(spec.hamiltonian, 2))
    ratios = []
    for rn in np.logspace(-3, -0.5, 12):
        n = rn / params.damping
        x = pw.position_expectation(n, params)
        loss = 1.0 - pw.fidelity(pw.evolve_exact(spec, n), pw.evolve_via_clock(spec, x, params))
        ratios.append(loss / (rn**2 * h_norm**2 * n**2))
    print(f"fidelity-loss prefactor (fixed clock): max {max(ratios):.4f}")


def fidelity_slope() -> None:
    spec = pw.default_qubit_spec()
    rn_values = np.logspace(-3, -1, 9)
    losses = []
    for rn in rn_values:
        r = rn  # probe time n = 1
        params = pw.ClockParams(omega=2.0 * r, damping=r, n_reset=1.0 / r, alpha=1.0)
        x = pw.position_expectation(1.0, params)
        losses.append(
            1.0 - pw.fidelity(pw.evolve_exact(spec, 1.0), pw.evolve_via_clock(spec, x, params))
        )
    slope = np.polyfit(np.log(rn_values), np.log(np.array(losses)), 1)[0]
    print(f"fidelity-loss slope (clock scale co-varying, n = 1): {slope:.4f}")


if __name__ == "__main__":
    linear_error_sweep()
    concentration_ladder()
    worst_row_fidelity()
    fidelity_loss_prefactor()
    fidelity_slope()
