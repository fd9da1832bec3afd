"""Command-line driver: config ingestion, experiments, sweeps, CSV/JSON output.

Configs are single JSON documents; complex numbers are [re, im] pairs and the
system generator is a row-major flat list of such pairs. Every run writes one
UTF-8 CSV (header row, shortest round-trip float formatting, so identical
configs reproduce identical bytes) and a ``<name>.meta.json`` sidecar with the
fully resolved config, derived constants and timing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
# Unused: sweeps run serially. The benchmark's tracer (perfbench/tracing.py)
# swaps ``cli.ThreadPoolExecutor`` for a span-recording pool, so the name stays.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .params import (
    ClockParams,
    NoValues,
    NumericalError,
    SystemSpec,
    ValidationError,
    validate_clock_params,
    validate_system_spec,
)
from .clock import (
    damping_stationary_point,
    decoherence_rate,
    position_expectation,
    recommend_damping,
    width,
)
from .timemap import linearization_report, n_from_x_exact
from .conditional import (
    build_history_state,
    conditional_system_probability,
    ideal_limit_concentration,
    posterior_over_n,
)
from .evolution import compare_evolutions, default_qubit_spec, evolve_exact

SCHEMA_VERSION = 1

# Rows formatted and written per block by _write_csv, bounding the strings
# held at once.
_CSV_BLOCK_ROWS = 1024

EXPERIMENTS = (
    "clock-profile",
    "damping-opt",
    "timemap",
    "posterior",
    "ideal-limit",
    "evolve-compare",
    "oracle-check",
)

SWEEPABLE = ("damping", "r", "n_reset", "mass", "omega", "grid_size")

# Base clock: natural units with the recommended damping saturating the
# running-time bound.
_BASE_CLOCK = {
    "hbar": 1.0,
    "mass": 1.0,
    "omega": 1.0,
    "damping": 0.5,
    "alpha": [1.0, 0.0],
    "n_reset": 2.0,
    "phase": 0.0,
}

# Time-map experiments additionally need the monotone inversion window
# Omega * n_reset < pi/2, so the horizon is shortened (damping stays 1/n_reset).
_TIMEMAP_CLOCK = dict(_BASE_CLOCK, n_reset=1.5, damping=1.0 / 1.5)

# Narrow-clock configuration for the concentration and oracle experiments:
# weak damping inside the monotone window, amplitude 1.
_NARROW_CLOCK = dict(
    _BASE_CLOCK,
    damping=0.1,
    n_reset=1.5,
    alpha=[np.sqrt(0.5), 0.0],
)

_DEFAULTS: dict[str, dict] = {
    "clock-profile": {"clock": _BASE_CLOCK, "grid_size": 256, "options": {}},
    "damping-opt": {"clock": _BASE_CLOCK, "grid_size": 64, "options": {}},
    "timemap": {"clock": _TIMEMAP_CLOCK, "grid_size": 128, "options": {}},
    "posterior": {"clock": _BASE_CLOCK, "grid_size": 2048, "options": {}},
    "ideal-limit": {
        "clock": _NARROW_CLOCK,
        "grid_size": 4096,
        "options": {"scales": [10.0, 100.0, 1000.0, 10000.0], "window": 0.05},
    },
    "evolve-compare": {"clock": _BASE_CLOCK, "grid_size": 128, "options": {}},
    "oracle-check": {
        "clock": dict(_NARROW_CLOCK, mass=10000.0, alpha=[np.sqrt(5000.0), 0.0]),
        "grid_size": 2048,
        "options": {"num_readings": 5, "reading_span": [0.25, 0.85]},
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved configuration of one experiment run.

    ``auto_fields`` records clock fields the config left as "auto"
    (damping = 1/n_reset or n_reset = 1/damping), so sweeps can re-resolve
    them per swept value.
    """

    clock: ClockParams
    system: SystemSpec
    experiment: str
    grid_size: int
    output_path: str
    seed: int
    options: dict = field(default_factory=dict)
    auto_fields: tuple[str, ...] = ()


@dataclass(frozen=True)
class RunResult:
    csv_path: Path
    meta_path: Path


def _complex_from_json(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value, 0.0)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ValidationError(f"expected a number or [re, im] pair, got {value!r}")


def _complex_to_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _clock_from_doc(doc: dict) -> tuple[ClockParams, tuple[str, ...]]:
    doc = dict(doc)
    damping = doc.get("damping", 0.0)
    n_reset = doc.get("n_reset", 1.0)
    auto: tuple[str, ...] = ()
    if damping == "auto" and n_reset == "auto":
        raise ValidationError("clock.damping and clock.n_reset cannot both be 'auto'")
    if n_reset == "auto":
        if not isinstance(damping, (int, float)) or damping <= 0:
            raise ValidationError("clock.n_reset 'auto' requires a positive numeric damping")
        n_reset = 1.0 / float(damping)
        auto = ("n_reset",)
    params = ClockParams(
        hbar=float(doc.get("hbar", 1.0)),
        mass=float(doc.get("mass", 1.0)),
        omega=float(doc.get("omega", 1.0)),
        damping=0.0,  # placeholder until 'auto' is resolved
        alpha=_complex_from_json(doc.get("alpha", 1.0)),
        n_reset=float(n_reset),
        phase=float(doc.get("phase", 0.0)),
    )
    if damping == "auto":
        damping = recommend_damping(params.n_reset, params)
        auto = ("damping",)
    params = replace(params, damping=float(damping))
    return validate_clock_params(params), auto


def _system_from_doc(doc: dict) -> SystemSpec:
    dim = int(doc["dim"])
    flat = doc["hamiltonian"]
    if len(flat) != dim * dim:
        raise ValidationError(
            f"hamiltonian must be a row-major list of {dim * dim} [re, im] pairs"
        )
    h = np.array([_complex_from_json(v) for v in flat], dtype=np.complex128).reshape(dim, dim)
    psi = np.array([_complex_from_json(v) for v in doc["initial_state"]], dtype=np.complex128)
    return validate_system_spec(SystemSpec(dim=dim, hamiltonian=h, initial_state=psi))


def _system_to_doc(spec: SystemSpec) -> dict:
    return {
        "dim": spec.dim,
        "hamiltonian": [_complex_to_json(z) for z in spec.hamiltonian.reshape(-1)],
        "initial_state": [_complex_to_json(z) for z in spec.initial_state],
    }


def _clock_to_doc(params: ClockParams) -> dict:
    return {
        "hbar": params.hbar,
        "mass": params.mass,
        "omega": params.omega,
        "damping": params.damping,
        "alpha": _complex_to_json(complex(params.alpha)),
        "n_reset": params.n_reset,
        "phase": params.phase,
    }


def resolve_config(
    experiment: str,
    doc: dict | None = None,
    out: str | None = None,
    grid: int | None = None,
    seed: int | None = None,
) -> ExperimentConfig:
    """Merge per-experiment defaults, a config document and CLI overrides."""
    if experiment not in EXPERIMENTS:
        raise ValidationError(f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
    doc = dict(doc or {})
    defaults = _DEFAULTS[experiment]

    clock_doc = dict(defaults["clock"])
    clock_doc.update(doc.get("clock", {}))
    clock, auto_fields = _clock_from_doc(clock_doc)

    if "system" in doc:
        system = _system_from_doc(doc["system"])
    else:
        system = default_qubit_spec()

    grid_size = int(grid if grid is not None else doc.get("grid_size", defaults["grid_size"]))
    if grid_size < 16:
        raise ValidationError(f"grid_size must be >= 16, got {grid_size}")

    options = dict(defaults["options"])
    options.update(doc.get("options", {}))

    return ExperimentConfig(
        clock=clock,
        system=system,
        experiment=experiment,
        grid_size=grid_size,
        output_path=str(out if out is not None else doc.get("output_path", "out")),
        seed=int(seed if seed is not None else doc.get("seed", 0)),
        options=options,
        auto_fields=auto_fields,
    )


# ---------------------------------------------------------------------------
# Experiment implementations: each returns (header, columns, extras), one
# column per header entry.
# ---------------------------------------------------------------------------


def _run_clock_profile(cfg: ExperimentConfig):
    n = np.linspace(0.0, cfg.clock.n_reset, cfg.grid_size)
    columns = [
        n,
        position_expectation(n, cfg.clock),
        width(n, cfg.clock),
        decoherence_rate(n, cfg.clock),
    ]
    return ["n", "mean_x", "width", "decoherence_rate"], columns, {}


def _run_damping_opt(cfg: ExperimentConfig):
    n = np.linspace(0.0, cfg.clock.n_reset, cfg.grid_size + 1)[1:]  # exclude n = 0
    point = damping_stationary_point(n, cfg.clock)
    columns = [n, point.r_star, point.rate, point.classification]
    return ["n", "r_star", "rate_at_r_star", "classification"], columns, {}


def _run_timemap(cfg: ExperimentConfig):
    table = linearization_report(cfg.clock, cfg.grid_size)
    header = ["x", "y", "n_exact", "n_log", "n_linear", "rel_error_linear"]
    columns = [getattr(table, name) for name in header]
    return header, columns, {"max_rel_error_linear": float(np.max(table.rel_error_linear))}


def _run_posterior(cfg: ExperimentConfig):
    x = cfg.options.get("x")
    if x is None:
        x = position_expectation(cfg.clock.n_reset / 2.0, cfg.clock)
    posterior = posterior_over_n(float(x), cfg.clock, cfg.grid_size)
    extras = {
        "x": float(x),
        "norm_raw": posterior.norm_raw,
        "integration_bound": float(posterior.grid[-1]),
    }
    return ["n_prime", "density"], [posterior.grid, posterior.density], extras


def _run_ideal_limit(cfg: ExperimentConfig):
    scales = [float(scale) for scale in cfg.options["scales"]]
    if not scales:
        raise NoValues("ideal-limit requires at least one m*omega scale")
    window = float(cfg.options["window"])
    probe_time = float(cfg.options.get("probe_time", cfg.clock.n_reset / 3.0))
    target_amplitude = cfg.clock.amplitude
    readings, fractions = [], []
    for scale in scales:  # one clock per scale
        scaled = replace(cfg.clock, mass=scale / cfg.clock.omega).with_amplitude(
            target_amplitude
        )
        validate_clock_params(scaled)
        x = position_expectation(probe_time, scaled)
        readings.append(x)
        fractions.append(ideal_limit_concentration(x, scaled, window, cfg.grid_size))
    columns = [scales, [window] * len(scales), readings, fractions]
    extras = {"probe_time": probe_time, "amplitude": target_amplitude}
    return ["mass_omega", "window", "x", "mass_fraction"], columns, extras


def _run_evolve_compare(cfg: ExperimentConfig):
    table = compare_evolutions(cfg.system, cfg.clock, cfg.grid_size)
    columns = [table.n, table.x, table.y, table.fidelity]
    return ["n", "x", "y", "fidelity"], columns, {"worst_row_fidelity": table.worst_fidelity}


def _probe_projectors(dim: int) -> tuple[np.ndarray, np.ndarray]:
    probe = np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
    projector = np.outer(probe, probe.conj())
    return projector, np.eye(dim, dtype=np.complex128) - projector


def _run_oracle_check(cfg: ExperimentConfig):
    history = build_history_state(cfg.system, cfg.clock, cfg.grid_size)
    proj_a, proj_b = _probe_projectors(cfg.system.dim)
    probe = np.full(cfg.system.dim, 1.0 / np.sqrt(cfg.system.dim), dtype=np.complex128)

    lo, hi = cfg.options["reading_span"]
    rng = np.random.default_rng(cfg.seed)
    times = np.sort(rng.uniform(lo, hi, int(cfg.options["num_readings"]))) * cfg.clock.n_reset

    readings = position_expectation(times, cfg.clock)
    cond_a = conditional_system_probability(history, readings, proj_a)
    cond_b = conditional_system_probability(history, readings, proj_b)

    evolved = evolve_exact(cfg.system, n_from_x_exact(readings, cfg.clock))
    exact_a = np.abs(np.matmul(probe.conj(), evolved[..., None])[..., 0]) ** 2  # |<probe|psi>|^2
    exact_b = 1.0 - exact_a
    err_a = np.abs(cond_a - exact_a)
    err_b = np.abs(cond_b - exact_b)
    residual = np.abs(cond_a + cond_b - 1.0)
    header = [
        "n",
        "x",
        "p_cond_a",
        "p_exact_a",
        "abs_err_a",
        "p_cond_b",
        "p_exact_b",
        "abs_err_b",
    ]
    columns = [times, readings, cond_a, exact_a, err_a, cond_b, exact_b, err_b]
    extras = {
        "max_abs_err": float(np.max([err_a, err_b], initial=0.0)),
        "max_complement_residual": float(np.max(residual, initial=0.0)),
    }
    return header, columns, extras


_RUNNERS = {
    "clock-profile": _run_clock_profile,
    "damping-opt": _run_damping_opt,
    "timemap": _run_timemap,
    "posterior": _run_posterior,
    "ideal-limit": _run_ideal_limit,
    "evolve-compare": _run_evolve_compare,
    "oracle-check": _run_oracle_check,
}


def _format_column(column) -> list[str]:
    """CSV cells of one column: shortest round-trip repr for floats, text as is."""
    column = np.asarray(column)
    if column.dtype.kind == "f":
        return list(map(repr, column.tolist()))
    if column.dtype.kind == "U":
        return column.tolist()
    raise TypeError(f"unsupported CSV column dtype {column.dtype}")


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns as CSV rows, formatting one block of rows at a time."""
    columns = [np.asarray(column) for column in columns]
    rows = len(columns[0]) if columns else 0
    if any(len(column) != rows for column in columns):
        raise ValueError(f"CSV columns differ in length: {[len(c) for c in columns]}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, _CSV_BLOCK_ROWS):
            cells = [_format_column(column[start:start + _CSV_BLOCK_ROWS]) for column in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _write_json(path: Path, doc: dict) -> None:
    """Write strict JSON: a NaN or infinity raises ValueError before the file opens."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _derived_constants(cfg: ExperimentConfig) -> dict:
    derived = {
        "damped_frequency": cfg.clock.damped_frequency,
        "amplitude": cfg.clock.amplitude,
    }
    if cfg.clock.damping > 0.0:
        rescaled = cfg.system.rescaled_hamiltonian(cfg.clock)
        derived["rescaled_generator_norm"] = float(np.linalg.norm(rescaled, 2))
    else:
        derived["rescaled_generator_norm"] = None
    return derived


def run(cfg: ExperimentConfig) -> RunResult:
    """Run one experiment; write its CSV and meta sidecar; return the paths."""
    started = time.perf_counter()
    header, rows, extras = _RUNNERS[cfg.experiment](cfg)
    out_dir = Path(cfg.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{cfg.experiment}.csv"
    meta_path = out_dir / f"{cfg.experiment}.meta.json"
    _write_csv(csv_path, header, rows)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "csv_header": header,
        "csv_file": csv_path.name,
        "library_version": __version__,
        "duration_seconds": time.perf_counter() - started,
        "config": {
            "clock": _clock_to_doc(cfg.clock),
            "system": _system_to_doc(cfg.system),
            "experiment": cfg.experiment,
            "grid_size": cfg.grid_size,
            "output_path": cfg.output_path,
            "seed": cfg.seed,
            "options": cfg.options,
        },
        "derived": _derived_constants(cfg),
    }
    meta.update(extras)
    _write_json(meta_path, meta)
    return RunResult(csv_path=csv_path, meta_path=meta_path)


def _apply_sweep_value(cfg: ExperimentConfig, parameter: str, value: float) -> ExperimentConfig:
    if parameter == "grid_size":
        return replace(cfg, grid_size=int(value))
    name = "damping" if parameter == "r" else parameter
    clock = replace(cfg.clock, **{name: float(value)})
    # Re-resolve fields the original config tied to the swept one.
    if name == "damping" and "n_reset" in cfg.auto_fields and value > 0:
        clock = replace(clock, n_reset=1.0 / float(value))
    if name == "n_reset" and "damping" in cfg.auto_fields:
        clock = replace(clock, damping=recommend_damping(float(value), clock))
    return replace(cfg, clock=validate_clock_params(clock))


def sweep(cfg: ExperimentConfig, parameter: str, values: list) -> list[dict]:
    """Run the experiment once per value; write per-value outputs and an index.

    Each run writes into ``<output_path>/<parameter>=<value>/``; the index
    file mapping values to outputs is written last. A failing value is
    recorded in its index entry (status "error", type and message) and the
    other values still run; ``main`` exits 1 when any entry failed.
    """
    if parameter not in SWEEPABLE:
        raise ValidationError(f"parameter {parameter!r} is not sweepable; expected one of {SWEEPABLE}")
    if not values:
        raise NoValues("sweep requires at least one value")

    entries: list[dict] = []
    for value in values:
        entry: dict = {"value": value}
        try:
            sub_out = Path(cfg.output_path) / f"{parameter}={value}"
            result = run(_apply_sweep_value(replace(cfg, output_path=str(sub_out)), parameter, value))
            entry["status"] = "ok"
            entry["csv"] = str(result.csv_path)
            entry["meta"] = str(result.meta_path)
        except Exception as exc:  # recorded per value, index still written
            entry["status"] = "error"
            entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
        entries.append(entry)

    out_dir = Path(cfg.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    index = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "parameter": parameter,
        "runs": entries,
    }
    _write_json(out_dir / "sweep_index.json", index)
    return entries


def _emit_error(exc: Exception) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload), file=sys.stderr)


def _parse_sweep_flag(text: str) -> tuple[str, list[float]]:
    if "=" not in text:
        raise ValidationError("--sweep expects param=v1,v2,...")
    name, _, raw = text.partition("=")
    name = name.strip()
    pieces = [p for p in raw.split(",") if p.strip()]
    values = [float(p) for p in pieces]
    if not all(np.isfinite(values)):
        raise ValidationError(f"--sweep values must be finite, got {raw!r}")
    if name == "grid_size":
        values = [int(v) for v in values]
    return name, values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pwclock",
        description="Damped-oscillator clock experiments: conditional-probability time "
        "from clock position readings.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS + ("all",))
    parser.add_argument("--config", type=str, default=None, help="JSON config document")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--grid", type=int, default=None, help="grid size override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--sweep", type=str, default=None, help="param=v1,v2,... sweep")
    args = parser.parse_args(argv)

    try:
        doc = None
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)

        if args.experiment == "all":
            if args.sweep is not None:
                raise ValidationError("--sweep is not supported with the 'all' bundle")
            for name in EXPERIMENTS:
                cfg = resolve_config(name, doc, args.out, args.grid, args.seed)
                run(cfg)
            return 0

        cfg = resolve_config(args.experiment, doc, args.out, args.grid, args.seed)
        if args.sweep is not None:
            parameter, values = _parse_sweep_flag(args.sweep)
            entries = sweep(cfg, parameter, values)
            if any(e["status"] != "ok" for e in entries):
                failed = [e for e in entries if e["status"] != "ok"]
                _emit_error(NumericalError(f"{len(failed)} sweep value(s) failed"))
                return 1
            return 0
        run(cfg)
        return 0
    except OSError as exc:
        _emit_error(exc)
        return 2
    except (ValidationError, NumericalError, ValueError, KeyError, json.JSONDecodeError) as exc:
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
