"""Command-line driver: config ingestion, experiments, sweeps, CSV/JSON output.

Configs are single JSON documents; complex numbers are [re, im] pairs and the
system generator is a row-major flat list of such pairs. Every run writes one
UTF-8 CSV (header row, shortest round-trip float formatting, so identical
configs reproduce identical bytes) and a ``<name>.meta.json`` sidecar with the
fully resolved config, derived constants and timing.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from ._csv import _write_csv, _write_json
from ._rng import uniform
from .params import (
    ClockParams,
    NumericalError,
    SystemSpec,
    ValidationError,
    _checked_whole,
    _is_number,
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
from .evolution import _eigensystem, _inner, compare_evolutions, default_qubit_spec, evolve_exact

SCHEMA_VERSION = 1

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


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved configuration of one experiment run, built by ``resolve_config``.

    ``clock_doc`` is the merged clock document with its "auto" entries kept,
    so a sweep resolves each swept value through the same rule.
    """

    clock: ClockParams
    clock_doc: dict
    system: SystemSpec
    experiment: str
    grid_size: int
    output_path: str
    seed: int
    options: dict


# The keys each part of a config document may hold; any other is rejected. The
# top level holds every ExperimentConfig field but the merged clock document.
_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.name != "clock_doc")
_CLOCK_KEYS = tuple(f.name for f in fields(ClockParams))
_SYSTEM_KEYS = tuple(f.name for f in fields(SystemSpec))


@dataclass(frozen=True)
class RunResult:
    csv_path: Path
    meta_path: Path


def _real(name: str, value) -> float:
    """``value`` as a float; a bool, a string or any other non-number raises ValidationError."""
    if _is_number(value):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValidationError(f"{name} must be a number, got {value!r}")


def _complex_from_json(name: str, value) -> complex:
    re, im = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, 0.0)
    return complex(_real(name, re), _real(name, im))


def _complex_array(name: str, value) -> np.ndarray:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{name} must be a list of numbers or [re, im] pairs, got {value!r}")
    return np.array([_complex_from_json(name, v) for v in value], dtype=np.complex128)


def _complex_to_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _clock_from_doc(doc: dict) -> ClockParams:
    """The validated clock of a merged clock document (every field present).

    The one place "auto" is resolved: ``"damping": "auto"`` becomes
    ``recommend_damping(n_reset)`` = 1/n_reset, ``"n_reset": "auto"`` 1/damping.
    """
    damping, n_reset = doc["damping"], doc["n_reset"]
    if damping == "auto" and n_reset == "auto":
        raise ValidationError("clock.damping and clock.n_reset cannot both be 'auto'")
    if n_reset == "auto":
        damping = _real("clock.damping", damping)
        if damping <= 0:
            raise ValidationError("clock.n_reset 'auto' requires a positive numeric damping")
        n_reset = 1.0 / damping
    params = ClockParams(
        hbar=_real("clock.hbar", doc["hbar"]),
        mass=_real("clock.mass", doc["mass"]),
        omega=_real("clock.omega", doc["omega"]),
        damping=0.0,  # placeholder until 'auto' is resolved
        alpha=_complex_from_json("clock.alpha", doc["alpha"]),
        n_reset=_real("clock.n_reset", n_reset),
        phase=_real("clock.phase", doc["phase"]),
    )
    if damping == "auto":
        damping = recommend_damping(params.n_reset, params)
    return validate_clock_params(replace(params, damping=_real("clock.damping", damping)))


def _system_from_doc(doc: dict) -> SystemSpec:
    dim = _checked_whole("system.dim", doc.get("dim"), 2, None)
    flat = _complex_array("system.hamiltonian", doc.get("hamiltonian"))
    if len(flat) != dim * dim:
        raise ValidationError(
            f"hamiltonian must be a row-major list of {dim * dim} [re, im] pairs"
        )
    psi = _complex_array("system.initial_state", doc.get("initial_state"))
    return validate_system_spec(
        SystemSpec(dim=dim, hamiltonian=flat.reshape(dim, dim), initial_state=psi)
    )


def _system_to_doc(spec: SystemSpec) -> dict:
    return {
        "dim": spec.dim,
        "hamiltonian": [_complex_to_json(z) for z in spec.hamiltonian.reshape(-1)],
        "initial_state": [_complex_to_json(z) for z in spec.initial_state],
    }


def _clock_to_doc(params: ClockParams) -> dict:
    return dict(asdict(params), alpha=_complex_to_json(complex(params.alpha)))


def _json_object(name: str, value, keys) -> dict:
    """A copy of ``value``, which must be a JSON object with no key outside ``keys``."""
    if not isinstance(value, dict):
        raise ValidationError(f"{name} must be a JSON object, got {type(value).__name__}")
    unknown = [key for key in value if key not in keys]
    if unknown:
        raise ValidationError(f"unknown {name} key(s) {unknown}; expected any of {sorted(keys)}")
    return dict(value)


def _options_from_doc(doc, defaults: dict, clock: ClockParams) -> dict:
    """The experiment's default options updated by ``doc``, checked.

    Raises ValidationError for an option no runner reads, or one out of range.
    Every key is checked wherever it appears, whichever experiment reads it,
    so a bad value or a misspelt key fails before any run writes a file.
    """
    rules = {  # option: (test of its values as a float array, the rule it states)
        "window": (lambda v: v.ndim == 0 and v > 0.0, "a finite number > 0"),
        "scales": (
            lambda v: v.ndim == 1 and v.size > 0 and np.all(v > 0.0),
            "a non-empty list of finite numbers > 0",
        ),
        "probe_time": (
            lambda v: v.ndim == 0 and 0.0 <= v <= clock.n_reset,
            f"a finite number in [0, n_reset = {clock.n_reset}]",
        ),
        "reading_span": (
            lambda v: v.shape == (2,) and 0.0 <= v[0] < v[1] <= 1.0,
            "two finite numbers [lo, hi] with 0 <= lo < hi <= 1",
        ),
        "x": (lambda v: v.ndim == 0, "a finite number"),
    }
    options = dict(defaults, **_json_object("options", doc, (*rules, "num_readings")))
    for name, (valid, rule) in rules.items():
        if name not in options:
            continue
        raw = options[name]
        listed = isinstance(raw, (list, tuple))
        try:
            cells = [_real(name, cell) for cell in (raw if listed else [raw])]
            value = np.array(cells if listed else cells[0])
        except ValidationError:
            value = np.array(np.nan)
        if not (np.all(np.isfinite(value)) and valid(value)):
            raise ValidationError(f"option {name} must be {rule}, got {raw!r}")
    if "num_readings" in options:
        _checked_whole("num_readings", options["num_readings"], 1)
    return options


def resolve_config(
    experiment: str,
    doc: dict | None = None,
    out: str | None = None,
    grid: int | None = None,
    seed: int | None = None,
) -> ExperimentConfig:
    """Merge per-experiment defaults, a config document and CLI overrides.

    Raises ValidationError for an unknown key at any level, and for any
    clock, system, grid, seed, output path or option value outside its
    documented range, before anything is run. The config's ``experiment``,
    which ``run`` records in meta.json, must name an experiment; the
    ``experiment`` argument chooses which one runs.
    """
    if experiment not in EXPERIMENTS:
        raise ValidationError(f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
    doc = _json_object("config", {} if doc is None else doc, _CONFIG_KEYS)
    if doc.get("experiment", experiment) not in EXPERIMENTS:
        raise ValidationError(f"experiment must be one of {EXPERIMENTS}, got {doc['experiment']!r}")
    _, default_clock, default_grid, default_options = _EXPERIMENTS[experiment]

    clock_doc = dict(default_clock, **_json_object("clock", doc.get("clock", {}), _CLOCK_KEYS))
    clock = _clock_from_doc(clock_doc)

    if "system" in doc:
        system = _system_from_doc(_json_object("system", doc["system"], _SYSTEM_KEYS))
    else:
        system = default_qubit_spec()

    # The document's values are checked even where an override replaces them.
    grid_size = _checked_whole("grid_size", doc.get("grid_size", default_grid), 16)
    grid_size = grid_size if grid is None else _checked_whole("grid_size", grid, 16)
    doc_seed = _checked_whole("seed", doc.get("seed", 0), 0, None)
    output_path = doc.get("output_path", "out")
    if not isinstance(output_path, str):
        raise ValidationError(f"output_path must be a string, got {output_path!r}")
    output_path = output_path if out is None else str(out)

    return ExperimentConfig(
        clock=clock,
        clock_doc=clock_doc,
        system=system,
        experiment=experiment,
        grid_size=grid_size,
        output_path=output_path,
        seed=doc_seed if seed is None else _checked_whole("seed", seed, 0, None),
        options=_options_from_doc(doc.get("options", {}), default_options, clock),
    )


# ---------------------------------------------------------------------------
# Experiment implementations: each returns (table, extras); the table maps
# each CSV column's name to its values, in column order.
# ---------------------------------------------------------------------------


def _run_clock_profile(cfg: ExperimentConfig):
    clock = cfg.clock
    n = np.linspace(0.0, clock.n_reset, cfg.grid_size)
    return dict(n=n, mean_x=position_expectation(n, clock), width=width(n, clock),
                decoherence_rate=decoherence_rate(n, clock)), {}


def _run_damping_opt(cfg: ExperimentConfig):
    n = np.linspace(0.0, cfg.clock.n_reset, cfg.grid_size + 1)[1:]  # exclude n = 0
    point = damping_stationary_point(n, cfg.clock)
    return dict(n=n, r_star=point.r_star, rate_at_r_star=point.rate,
                classification=point.classification), {}


def _run_timemap(cfg: ExperimentConfig):
    table = linearization_report(cfg.clock, cfg.grid_size)
    # Its fields, x, y, n_exact, n_log, n_linear and rel_error_linear, are the columns.
    return dict(vars(table)), {"max_rel_error_linear": float(np.max(table.rel_error_linear))}


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
    return dict(n_prime=posterior.grid, density=posterior.density), extras


def _run_ideal_limit(cfg: ExperimentConfig):
    scales = [float(scale) for scale in cfg.options["scales"]]
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
    table = dict(mass_omega=scales, window=[window] * len(scales), x=readings,
                 mass_fraction=fractions)
    return table, {"probe_time": probe_time, "amplitude": target_amplitude}


def _run_evolve_compare(cfg: ExperimentConfig):
    table = compare_evolutions(cfg.system, cfg.clock, cfg.grid_size)
    columns = dict(n=table.n, x=table.x, y=table.y, fidelity=table.fidelity)
    return columns, {"worst_row_fidelity": table.worst_fidelity}


def _run_oracle_check(cfg: ExperimentConfig):
    history = build_history_state(cfg.system, cfg.clock, cfg.grid_size)
    dim = cfg.system.dim
    probe = np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
    proj_a = np.outer(probe, probe.conj())
    projectors = np.stack([proj_a, np.eye(dim, dtype=np.complex128) - proj_a])

    lo, hi = cfg.options["reading_span"]
    size = int(cfg.options["num_readings"])
    times = np.sort(uniform(cfg.seed, lo, hi, size)) * cfg.clock.n_reset

    readings = position_expectation(times, cfg.clock)
    cond_a, cond_b = conditional_system_probability(history, readings, projectors)

    evolved = evolve_exact(cfg.system, n_from_x_exact(readings, cfg.clock))
    exact_a = np.abs(_inner(probe, evolved)) ** 2
    exact_b = 1.0 - exact_a
    err_a = np.abs(cond_a - exact_a)
    err_b = np.abs(cond_b - exact_b)
    residual = np.abs(cond_a + cond_b - 1.0)
    table = dict(n=times, x=readings, p_cond_a=cond_a, p_exact_a=exact_a, abs_err_a=err_a,
                 p_cond_b=cond_b, p_exact_b=exact_b, abs_err_b=err_b)
    extras = {
        "max_abs_err": float(np.max([err_a, err_b], initial=0.0)),
        "max_complement_residual": float(np.max(residual, initial=0.0)),
    }
    return table, extras


# Each experiment's runner and its default clock, grid_size and options, in
# the order that `all` runs them.
_EXPERIMENTS = {
    "clock-profile": (_run_clock_profile, _BASE_CLOCK, 256, {}),
    "damping-opt": (_run_damping_opt, _BASE_CLOCK, 64, {}),
    "timemap": (_run_timemap, _TIMEMAP_CLOCK, 128, {}),
    "posterior": (_run_posterior, _BASE_CLOCK, 2048, {}),
    "ideal-limit": (
        _run_ideal_limit,
        _NARROW_CLOCK,
        4096,
        {"scales": [10.0, 100.0, 1000.0, 10000.0], "window": 0.05},
    ),
    "evolve-compare": (_run_evolve_compare, _BASE_CLOCK, 128, {}),
    "oracle-check": (
        _run_oracle_check,
        dict(_NARROW_CLOCK, mass=10000.0, alpha=[np.sqrt(5000.0), 0.0]),
        2048,
        {"num_readings": 5, "reading_span": [0.25, 0.85]},
    ),
}

EXPERIMENTS = tuple(_EXPERIMENTS)


def _derived_constants(cfg: ExperimentConfig) -> dict:
    """Omega, A and the rescaled generator's norm 2*max|E|/(r*A) (None at r = 0)."""
    clock = cfg.clock
    norm = None
    if clock.damping > 0.0:
        energies = _eigensystem(cfg.system)[0]
        norm = 2.0 * float(np.max(np.abs(energies))) / (clock.damping * clock.amplitude)
    return {
        "damped_frequency": clock.damped_frequency,
        "amplitude": clock.amplitude,
        "rescaled_generator_norm": norm,
    }


def _compute(cfg: ExperimentConfig):
    """One experiment's (table, extras) and the seconds it took."""
    started = time.perf_counter()
    table, extras = _EXPERIMENTS[cfg.experiment][0](cfg)
    return table, extras, time.perf_counter() - started


def run(cfg: ExperimentConfig, computed=None) -> RunResult:
    """Run one experiment; write its CSV and meta sidecar; return the paths.

    ``computed`` is the experiment's ``_compute(cfg)`` when it already ran:
    ``main`` computes every experiment it runs before writing, so a failing
    experiment leaves no file behind.
    """
    table, extras, seconds = computed or _compute(cfg)
    header = list(table)
    started = time.perf_counter()
    out_dir = Path(cfg.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{cfg.experiment}.csv"
    meta_path = out_dir / f"{cfg.experiment}.meta.json"
    _write_csv(csv_path, header, table.values())
    meta = {
        "schema_version": SCHEMA_VERSION,
        "experiment": cfg.experiment,
        "csv_header": header,
        "csv_file": csv_path.name,
        "library_version": __version__,
        "duration_seconds": seconds + time.perf_counter() - started,
        "config": dict(
            {key: getattr(cfg, key) for key in _CONFIG_KEYS},
            clock=_clock_to_doc(cfg.clock),
            system=_system_to_doc(cfg.system),
        ),
        "derived": _derived_constants(cfg),
    }
    meta.update(extras)
    _write_json(meta_path, meta)
    return RunResult(csv_path=csv_path, meta_path=meta_path)


def _apply_sweep_value(cfg: ExperimentConfig, parameter: str, value: float) -> ExperimentConfig:
    if parameter == "grid_size":
        return replace(cfg, grid_size=_checked_whole("grid_size", value, 16))
    doc = dict(cfg.clock_doc, **{"damping" if parameter == "r" else parameter: value})
    clock = _clock_from_doc(doc)
    options = _options_from_doc(cfg.options, {}, clock)  # probe_time depends on n_reset
    return replace(cfg, clock=clock, clock_doc=doc, options=options)


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
        raise ValidationError("sweep requires at least one value")

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
            entry.update(status="error", **_error_doc(exc))
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


def _error_doc(exc: Exception) -> dict:
    """The error object of the stderr line and of a failed sweep entry."""
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def _flag_number(flag: str, text: str | None):
    """An int where ``int`` reads ``text``, else a finite float; resolve_config checks the rest."""
    try:
        return None if text is None else int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValidationError(f"{flag} must be a finite number, got {text!r}")
    return value


def _parse_sweep_flag(text: str) -> tuple[str, list]:
    """The parameter and values of ``param=v1,v2,...``, each value read as --grid's is."""
    if "=" not in text:
        raise ValidationError("--sweep expects param=v1,v2,...")
    name, _, raw = text.partition("=")
    name = name.strip()
    values = [_flag_number("--sweep", piece) for piece in raw.split(",") if piece.strip()]
    if name == "grid_size":
        return name, [_checked_whole("grid_size", v, 16) for v in values]
    return name, [_real("--sweep", v) for v in values]


def __getattr__(name: str):
    # Unused: sweeps run serially. The benchmark's tracer (perfbench/tracing.py)
    # swaps ``cli.ThreadPoolExecutor`` for a span-recording pool, so the name
    # stays, imported only when asked for (PEP 562).
    if name == "ThreadPoolExecutor":
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main(argv: list[str] | None = None) -> int:
    import argparse  # here, not at the top: importing the module needs no parser

    parser = argparse.ArgumentParser(
        prog="pwclock",
        description="Damped-oscillator clock experiments: conditional-probability time "
        "from clock position readings.",
    )
    parser.add_argument("experiment", metavar="{" + ",".join(EXPERIMENTS + ("all",)) + "}")
    parser.add_argument("--config", type=str, default=None, help="JSON config document")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--grid", default=None, help="grid size override")
    parser.add_argument("--seed", default=None, help="seed override")
    parser.add_argument("--sweep", type=str, default=None, help="param=v1,v2,... sweep")
    args = parser.parse_args(argv)

    try:
        grid, seed = _flag_number("--grid", args.grid), _flag_number("--seed", args.seed)
        doc = None
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)

        names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
        if args.sweep is not None and len(names) > 1:
            raise ValidationError("--sweep is not supported with the 'all' bundle")
        # Resolve and compute every experiment before the first write, so a
        # bad config or a failing run writes no CSV.
        configs = [resolve_config(name, doc, args.out, grid, seed) for name in names]
        if args.sweep is not None:
            entries = sweep(configs[0], *_parse_sweep_flag(args.sweep))
            failed = sum(entry["status"] != "ok" for entry in entries)
            if failed:
                raise NumericalError(f"{failed} sweep value(s) failed")
            return 0
        computed = [_compute(cfg) for cfg in configs]
        for cfg, result in zip(configs, computed):
            run(cfg, result)
        return 0
    except (OSError, ValidationError, NumericalError, ValueError, KeyError) as exc:
        print(json.dumps(_error_doc(exc)), file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1


if __name__ == "__main__":
    sys.exit(main())
