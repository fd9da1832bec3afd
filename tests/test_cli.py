import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pwclock
from pwclock import ValidationError, _csv, cli
from pwclock.cli import (
    EXPERIMENTS,
    SCHEMA_VERSION,
    main,
    resolve_config,
    run,
    sweep,
)
from pwclock.params import _MAX_SIZE


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_clock_profile_schema(tmp_path):
    out = tmp_path / "out"
    assert main(["clock-profile", "--out", str(out)]) == 0
    header, rows = read_csv(out / "clock-profile.csv")
    assert header == ["n", "mean_x", "width", "decoherence_rate"]
    assert len(rows) == 256
    assert float(rows[0][0]) == 0.0


def test_damping_opt_schema(tmp_path):
    out = tmp_path / "out"
    assert main(["damping-opt", "--out", str(out)]) == 0
    header, rows = read_csv(out / "damping-opt.csv")
    assert header == ["n", "r_star", "rate_at_r_star", "classification"]
    for row in rows:
        assert float(row[0]) * float(row[1]) == pytest.approx(1.0, rel=1e-12)
        assert row[3] == "maximum"


def test_timemap_schema(tmp_path):
    out = tmp_path / "out"
    assert main(["timemap", "--out", str(out)]) == 0
    header, rows = read_csv(out / "timemap.csv")
    assert header == ["x", "y", "n_exact", "n_log", "n_linear", "rel_error_linear"]
    errors = [float(row[-1]) for row in rows]
    # strictly growing except a small genuine turnover in the last few
    # percent of the window (see tests/test_timemap.py)
    cutoff = int(len(errors) * 0.95)
    assert errors[:cutoff] == sorted(errors[:cutoff])
    assert all(b - a >= -2e-4 for a, b in zip(errors, errors[1:]))


def test_evolve_compare_trivial_generator(tmp_path):
    doc = {
        "system": {
            "dim": 2,
            "hamiltonian": [[0.0, 0.0]] * 4,
            "initial_state": [[1.0, 0.0], [0.0, 0.0]],
        }
    }
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["evolve-compare", "--config", cfg_path, "--out", str(out)]) == 0
    header, rows = read_csv(out / "evolve-compare.csv")
    fid_col = header.index("fidelity")
    assert all(row[fid_col] == "1.0" for row in rows)
    meta = json.loads((out / "evolve-compare.meta.json").read_text())
    assert meta["worst_row_fidelity"] == 1.0


def test_identical_configs_reproduce_identical_bytes(tmp_path):
    """``all`` twice, and ``all`` against each experiment run on its own, write equal CSVs.

    The CSVs are keyed by file name, and each side must hold exactly one per
    experiment. The default bundle's posterior has 2048 rows, so the
    comparison spans several blocks of the CSV writer.
    """

    def csvs(out):
        return {path.name: path.read_bytes() for path in out.glob("*.csv")}

    expected = {f"{name}.csv" for name in EXPERIMENTS}
    assert main(["all", "--out", str(tmp_path / "a")]) == 0
    assert main(["all", "--out", str(tmp_path / "b")]) == 0
    alone = {}
    for name in EXPERIMENTS:
        out = tmp_path / "alone" / name
        assert main([name, "--out", str(out)]) == 0
        written = csvs(out)
        assert set(written) == {f"{name}.csv"}
        alone.update(written)
    first, second = csvs(tmp_path / "a"), csvs(tmp_path / "b")
    assert set(first) == set(second) == set(alone) == expected
    for name in sorted(expected):
        assert first[name] == second[name], f"{name} differs between two runs of all"
        assert first[name] == alone[name], f"{name} differs between all and a run on its own"


def test_all_bundle_writes_every_experiment(tmp_path):
    out = tmp_path / "out"
    assert main(["all", "--out", str(out)]) == 0
    for name in EXPERIMENTS:
        assert (out / f"{name}.csv").exists()
        assert (out / f"{name}.meta.json").exists()


def test_meta_sidecar_contents(tmp_path):
    out = tmp_path / "out"
    assert main(["evolve-compare", "--out", str(out)]) == 0
    meta = json.loads((out / "evolve-compare.meta.json").read_text())
    assert meta["schema_version"] == SCHEMA_VERSION
    assert meta["csv_header"] == ["n", "x", "y", "fidelity"]
    assert meta["library_version"]
    assert meta["duration_seconds"] >= 0.0
    derived = meta["derived"]
    clock = meta["config"]["clock"]
    omega, r = clock["omega"], clock["damping"]
    assert derived["damped_frequency"] == pytest.approx(math.sqrt(omega**2 - r**2 / 4.0))
    assert derived["amplitude"] > 0.0
    assert derived["rescaled_generator_norm"] > 0.0
    assert clock["alpha"] == [1.0, 0.0]
    assert len(meta["config"]["system"]["hamiltonian"]) == 4


@pytest.mark.parametrize("dim", range(2, 7))
def test_rescaled_generator_norm_matches_an_independent_svd(tmp_path, dim):
    # meta.json's norm is 2*max|E|/(r*A) from the eigenvalues; the SVD of
    # 2*H/(r*A) is its independent oracle.
    rng = np.random.default_rng(dim)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    hamiltonian = (raw + raw.conj().T) / 2.0
    system = {
        "dim": dim,
        "hamiltonian": [[z.real, z.imag] for z in hamiltonian.reshape(-1)],
        "initial_state": [[1.0, 0.0]] + [[0.0, 0.0]] * (dim - 1),
    }
    for clock in ({}, {"damping": 0.1, "n_reset": 1.5, "mass": 7.0, "alpha": [0.3, 0.0]}):
        cfg = resolve_config("clock-profile", {"system": system, "clock": clock}, str(tmp_path), 16)
        norm = json.loads(run(cfg).meta_path.read_text())["derived"]["rescaled_generator_norm"]
        scale = cfg.clock.damping * cfg.clock.amplitude
        svd = np.linalg.norm(2.0 * cfg.system.hamiltonian / scale, 2)
        assert abs(norm - svd) <= 4 * math.ulp(svd)


def test_sweep_with_tied_reset_horizon(tmp_path):
    doc = {"clock": {"damping": 0.5, "n_reset": "auto"}}
    cfg = resolve_config("clock-profile", doc, out=str(tmp_path / "sw"))
    entries = sweep(cfg, "r", [0.01, 0.05, 0.1])
    assert [e["status"] for e in entries] == ["ok", "ok", "ok"]
    index = json.loads((tmp_path / "sw" / "sweep_index.json").read_text())
    assert index["parameter"] == "r"
    assert [e["value"] for e in index["runs"]] == [0.01, 0.05, 0.1]
    meta = json.loads((tmp_path / "sw" / "r=0.05" / "clock-profile.meta.json").read_text())
    assert meta["config"]["clock"]["n_reset"] == pytest.approx(20.0)


def test_sweep_grid_refinement_on_posterior(tmp_path):
    cfg = resolve_config("posterior", None, out=str(tmp_path / "sw"))
    entries = sweep(cfg, "grid_size", [2048, 4096])
    assert all(e["status"] == "ok" for e in entries)
    norms = []
    for value in (2048, 4096):
        meta = json.loads(
            (tmp_path / "sw" / f"grid_size={value}" / "posterior.meta.json").read_text()
        )
        norms.append(meta["norm_raw"])
    assert abs(norms[1] - norms[0]) / norms[0] <= 1e-6


def test_sweep_rejects_empty_values(tmp_path):
    cfg = resolve_config("clock-profile", None, out=str(tmp_path / "sw"))
    with pytest.raises(ValidationError, match="^sweep requires at least one value$"):
        sweep(cfg, "r", [])


def test_empty_sweep_flag_exits_one(tmp_path, capsys):
    assert main(["clock-profile", "--out", str(tmp_path / "o"), "--sweep", "r="]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": {"type": "ValidationError", "message": "sweep requires at least one value"}
    }


@pytest.mark.parametrize(
    "values", ["nan", "0.5,nan", "inf", "0.1,abc", "0.1,1e400", pytest.param("1" * 400, id="400-digits")]
)
def test_non_finite_sweep_flag_exits_one(tmp_path, capsys, values):
    out = tmp_path / "o"
    assert main(["timemap", "--out", str(out), "--sweep", f"r={values}"]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"]["type"] == "ValidationError"
    assert not out.exists()


@pytest.mark.parametrize("value", ["100.7", "8", "-4"])
def test_grid_size_sweep_flag_rejects_what_grid_rejects(tmp_path, capsys, value):
    out = tmp_path / "o"
    assert main(["oracle-check", "--out", str(out), "--sweep", f"grid_size={value}"]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValidationError"
    assert not out.exists()


def test_sweep_index_is_strict_json(tmp_path):
    cfg = resolve_config("clock-profile", None, out=str(tmp_path / "sw"))
    with pytest.raises(ValueError):
        sweep(cfg, "r", [math.nan])  # the run fails, and NaN has no JSON spelling
    assert not (tmp_path / "sw" / "sweep_index.json").exists()


OVER_DAMPED = "under-damping requires r/2 < omega, got r/2 = 2.5 >= omega = 1.0"


def test_sweep_records_per_value_failures(tmp_path):
    cfg = resolve_config("clock-profile", None, out=str(tmp_path / "sw"))
    entries = sweep(cfg, "r", [0.1, 5.0])  # 5.0 is over-damped
    assert entries[0]["status"] == "ok"
    assert entries[1]["status"] == "error"
    assert entries[1]["error"] == {"type": "ValidationError", "message": OVER_DAMPED}
    assert (tmp_path / "sw" / "sweep_index.json").exists()


def test_failed_sweep_value_exits_one_with_one_error_line(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["clock-profile", "--out", str(out), "--sweep", "r=0.1,5.0"]) == 1  # 5.0 over-damped
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": {"type": "NumericalError", "message": "1 sweep value(s) failed"}
    }
    assert (out / "sweep_index.json").exists()


def test_invalid_config_exits_one(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"clock": {"damping": 5.0}})
    assert main(["clock-profile", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": {"type": "ValidationError", "message": OVER_DAMPED}
    }


def test_missing_config_exits_two(tmp_path, capsys):
    assert main(["posterior", "--config", str(tmp_path / "nope.json")]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "FileNotFoundError"


def test_unwritable_output_exits_two(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    assert main(["clock-profile", "--out", str(blocker / "sub")]) == 2
    capsys.readouterr()


def test_sweep_reset_horizon_rederives_recommended_damping(tmp_path):
    doc = {"clock": {"damping": "auto", "n_reset": 2.0}}
    cfg = resolve_config("clock-profile", doc, out=str(tmp_path / "sw"))
    assert cfg.clock.damping == pytest.approx(0.5)
    entries = sweep(cfg, "n_reset", [4.0, 8.0])
    assert all(e["status"] == "ok" for e in entries)
    meta = json.loads((tmp_path / "sw" / "n_reset=4.0" / "clock-profile.meta.json").read_text())
    assert meta["config"]["clock"]["damping"] == pytest.approx(0.25)


# One clock per way of tying damping and horizon, and the values swept under
# each: valid ones, and ones each rule rejects (r = 0 with the horizon tied
# to it, over-damping, a horizon past 1/r, under-damping broken by "auto").
TIED_CLOCKS = {
    "neither": {"damping": 0.5, "n_reset": 2.0},
    "damping auto": {"damping": "auto", "n_reset": 2.0},
    "n_reset auto": {"damping": 0.5, "n_reset": "auto"},
}
SWEPT_VALUES = {
    "r": [0.0, 0.1, 0.5, 2.5],
    "damping": [0.0, 0.25, 2.5],
    "n_reset": [0.5, 1.0, 4.0],
    "mass": [0.5, 2.0],
    "omega": [0.2, 1.0, 3.0],
    "grid_size": [16, 32],
}


@pytest.mark.parametrize("tie", TIED_CLOCKS)
@pytest.mark.parametrize("parameter", SWEPT_VALUES)
def test_sweep_resolves_each_value_as_resolve_config_does(tmp_path, capsys, tie, parameter):
    # probe_time is checked against each swept horizon, whichever experiment runs.
    doc = {"clock": TIED_CLOCKS[tie], "grid_size": 16, "options": {"probe_time": 0.9}}
    values = SWEPT_VALUES[parameter]
    out = tmp_path / "sw"
    argv = ["clock-profile", "--config", write_config(tmp_path, doc), "--out", str(out),
            "--sweep", f"{parameter}=" + ",".join(map(str, values))]
    code = main(argv)
    capsys.readouterr()
    entries = json.loads((out / "sweep_index.json").read_text())["runs"]
    assert [entry["value"] for entry in entries] == values
    for entry in entries:
        if parameter == "grid_size":
            swept = dict(doc, grid_size=entry["value"])
        else:
            key = "damping" if parameter == "r" else parameter
            swept = dict(doc, clock=dict(doc["clock"], **{key: entry["value"]}))
        try:
            expected = resolve_config("clock-profile", swept)
        except ValidationError as exc:
            assert entry["status"] == "error"
            assert entry["error"]["type"] == type(exc).__name__
            continue
        assert entry["status"] == "ok"
        config = json.loads(Path(entry["meta"]).read_text())["config"]
        assert config["clock"] == cli._clock_to_doc(expected.clock)
        assert config["grid_size"] == expected.grid_size
    assert code == (0 if all(entry["status"] == "ok" for entry in entries) else 1)


def test_sweep_to_zero_damping_under_a_tied_horizon_is_rejected(tmp_path):
    # The horizon 1/r has no value at r = 0: the value fails as its config
    # would, instead of running with the horizon of the previous damping.
    cfg = resolve_config("clock-profile", {"clock": TIED_CLOCKS["n_reset auto"]},
                         out=str(tmp_path / "sw"))
    entries = sweep(cfg, "r", [0.0, 0.5])
    assert entries[0]["status"] == "error"
    assert entries[0]["error"]["type"] == "ValidationError"
    assert entries[1]["status"] == "ok"


@pytest.mark.parametrize(
    "extra, doc",
    [
        (["--seed", "-1"], None),
        # Valid for the first experiments' clock (n_reset = 2), not for the
        # time-map clock (n_reset = 1.5), so the bundle fails part way through.
        ([], {"options": {"probe_time": 1.8}}),
    ],
)
def test_all_bundle_resolves_every_config_before_running(tmp_path, capsys, extra, doc):
    argv = ["all", "--out", str(tmp_path / "out")] + extra
    if doc is not None:
        argv += ["--config", write_config(tmp_path, doc)]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValidationError"
    assert not list(tmp_path.rglob("*.csv"))


def test_all_bundle_computes_every_experiment_before_writing(tmp_path, capsys):
    # A finite x passes the option check, but posterior (the fourth
    # experiment) cannot condition on it: nothing of the bundle is written.
    out = tmp_path / "out"
    argv = ["all", "--out", str(out), "--config", write_config(tmp_path, {"options": {"x": 80.0}})]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err) == {"error": {
        "type": "NumericalError",
        "message": "reading x = 80.0 is unreachable: unnormalized integral 0.0",
    }}
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "doc, name",
    [([1, 2], "config"), ({"clock": [1.0]}, "clock"), ({"options": "x"}, "options"),
     ({"system": 2}, "system")],
)
def test_config_parts_must_be_json_objects(tmp_path, capsys, doc, name):
    with pytest.raises(ValidationError, match=f"^{name} must be a JSON object"):
        resolve_config("oracle-check", doc)
    argv = ["oracle-check", "--out", str(tmp_path / "out"), "--config", write_config(tmp_path, doc)]
    assert main(argv) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ValidationError"
    assert error["message"].startswith(f"{name} must be a JSON object")
    assert not list(tmp_path.rglob("*.csv"))


def test_unknown_option_is_named(tmp_path, capsys):
    argv = ["oracle-check", "--out", str(tmp_path / "out"),
            "--config", write_config(tmp_path, {"options": {"num_reading": 0}})]
    assert main(argv) == 1
    assert "['num_reading']" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert not list(tmp_path.rglob("*.csv"))


def test_resolve_config_guards():
    with pytest.raises(ValidationError):
        resolve_config("not-an-experiment")
    with pytest.raises(ValidationError):
        resolve_config("posterior", {"grid_size": 8})
    with pytest.raises(ValidationError):
        resolve_config("posterior", {"clock": {"damping": "auto", "n_reset": "auto"}})


def test_sizes_have_a_ceiling_and_seeds_do_not(tmp_path):
    too_big = [
        ("grid_size", {"grid_size": _MAX_SIZE + 1}, None),
        ("grid_size", {}, _MAX_SIZE + 1),
        ("num_readings", {"options": {"num_readings": 10**12}}, None),
    ]
    for name, doc, grid in too_big:
        with pytest.raises(ValidationError, match=rf"^{name} must be <= {_MAX_SIZE}, got "):
            resolve_config("oracle-check", doc, grid=grid)
    assert resolve_config("oracle-check", {"grid_size": _MAX_SIZE}).grid_size == _MAX_SIZE
    assert resolve_config("oracle-check", {"seed": 2**100}).seed == 2**100
    # A sweep value meets the ceiling before any array is allocated for it.
    cfg = resolve_config("posterior", out=str(tmp_path))
    [entry] = sweep(cfg, "grid_size", [10**20])
    assert entry["error"]["message"] == f"grid_size must be <= {_MAX_SIZE}, got {10**20}"


def test_cli_overrides_beat_config(tmp_path):
    doc = {"grid_size": 64, "seed": 5}
    cfg = resolve_config("clock-profile", doc, grid=128, seed=9)
    assert cfg.grid_size == 128
    assert cfg.seed == 9


# A command line with a bad number or experiment name, and what its error names.
BAD_COMMAND_LINES = {
    **{f"oracle-check --grid {v}": "--grid" for v in ("abc", "nan", "inf")},
    **{f"oracle-check --grid {v}": "grid_size" for v in ("2.5", "8")},
    **{f"oracle-check --seed {v}": "--seed" for v in ("abc", "nan")},
    **{f"oracle-check --seed {v}": "seed" for v in ("1.5", "-1")},
    "nosuch": "experiment",
    f"oracle-check --grid {10**20}": "grid_size must be <=",
    f"oracle-check --sweep grid_size=64,{10**20}": "grid_size must be <=",
}


@pytest.mark.parametrize("command", BAD_COMMAND_LINES)
def test_bad_command_line_value_exits_one_naming_it(tmp_path, capsys, command):
    out = tmp_path / "o"
    assert main(command.split() + ["--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert BAD_COMMAND_LINES[command] in json.loads(line)["error"]["message"]
    assert not out.exists()


def outputs(out):
    """Each file's bytes under ``out``, meta.json without its timing and output path."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            meta = json.loads(path.read_text(encoding="utf-8"))
            del meta["duration_seconds"], meta["config"]["output_path"]
            files[path.name] = meta
        else:
            files[path.name] = path.read_bytes()
    return files


@pytest.mark.parametrize(
    "flags, reference",
    [
        (["--grid", "64.0"], ["--grid", "64"]),
        (["--grid", "6.4e1"], ["--grid", "64"]),
        (["--seed", str(2**64 + 5)], {"seed": 2**64 + 5}),
    ],
)
def test_command_line_numbers_follow_the_config_rule(tmp_path, flags, reference):
    """--grid and --seed take any whole number the config takes, to the same bytes."""
    assert main(["oracle-check", "--out", str(tmp_path / "flag")] + flags) == 0
    if isinstance(reference, dict):
        run(resolve_config("oracle-check", out=str(tmp_path / "ref"), **reference))
    else:
        assert main(["oracle-check", "--out", str(tmp_path / "ref")] + reference) == 0
    assert outputs(tmp_path / "flag") == outputs(tmp_path / "ref")


def test_run_returns_paths(tmp_path):
    cfg = resolve_config("posterior", None, out=str(tmp_path / "o"))
    result = run(cfg)
    assert result.csv_path.exists()
    assert result.meta_path.exists()
    meta = json.loads(result.meta_path.read_text())
    assert meta["norm_raw"] > 0.0
    assert meta["integration_bound"] == pytest.approx(
        min(cfg.clock.n_reset, 1.0 / cfg.clock.damping)
    )


def test_ideal_limit_fractions_monotone(tmp_path):
    out = tmp_path / "out"
    assert main(["ideal-limit", "--out", str(out)]) == 0
    header, rows = read_csv(out / "ideal-limit.csv")
    col = header.index("mass_fraction")
    fractions = [float(row[col]) for row in rows]
    assert all(b > a for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] >= 0.99


def test_oracle_check_accuracy(tmp_path):
    out = tmp_path / "out"
    assert main(["oracle-check", "--out", str(out)]) == 0
    meta = json.loads((out / "oracle-check.meta.json").read_text())
    assert meta["max_abs_err"] <= 1e-3
    assert meta["max_complement_residual"] <= 1e-12


def test_system_config_round_trip(tmp_path):
    c = 1.0 / math.sqrt(2.0)
    doc = {
        "system": {
            "dim": 2,
            "hamiltonian": [[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.0]],
            "initial_state": [[c, 0.0], [0.0, c]],
        },
        "clock": {"damping": 0.5, "n_reset": 2.0},
    }
    cfg = resolve_config("evolve-compare", doc)
    np.testing.assert_allclose(
        cfg.system.hamiltonian, np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
    )
    np.testing.assert_allclose(cfg.system.initial_state, np.array([c, 1j * c]))


@st.composite
def clock_docs(draw):
    """Valid clocks inside the monotone window, which every experiment accepts."""
    omega = draw(st.floats(0.5, 2.0))
    damping = draw(st.floats(0.05, 0.9)) * 2.0 * omega
    damped = math.sqrt(omega**2 - damping**2 / 4.0)
    horizon = min(1.0 / damping, 0.95 * (math.pi / 2.0) / damped)
    return {
        "hbar": draw(st.floats(0.5, 2.0)),
        "mass": draw(st.floats(0.5, 2.0)),
        "omega": omega,
        "damping": damping,
        "alpha": [draw(st.floats(0.3, 2.0)), draw(st.floats(-1.0, 1.0))],
        "n_reset": draw(st.floats(0.3, 1.0)) * horizon,
        "phase": draw(st.floats(-3.0, 3.0)),
    }


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@settings(max_examples=8)
@given(
    clock=st.one_of(st.none(), clock_docs()),
    grid=st.integers(16, 256),
    seed=st.integers(0, 2**32 - 1),
)
def test_config_survives_the_meta_round_trip(experiment, clock, grid, seed):
    doc = {"grid_size": grid, "seed": seed} | ({"clock": clock} if clock else {})
    with tempfile.TemporaryDirectory() as tmp:
        first = resolve_config(experiment, doc, out=tmp)
        meta = json.loads(run(first).meta_path.read_text(encoding="utf-8"))
    again = resolve_config(experiment, meta["config"])
    assert again.clock == first.clock
    assert again.system.dim == first.system.dim
    assert np.array_equal(again.system.hamiltonian, first.system.hamiltonian)
    assert np.array_equal(again.system.initial_state, first.system.initial_state)
    assert (again.grid_size, again.options, again.seed) == (first.grid_size, first.options, first.seed)


def invalid_docs():
    non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
    fields = st.sampled_from(["hbar", "mass", "omega", "damping", "n_reset", "phase"])
    scales = st.sampled_from(["hbar", "mass", "omega", "n_reset"])
    return st.one_of(
        st.builds(lambda name, value: {"clock": {name: value}}, fields, non_finite),
        st.builds(lambda value: {"clock": {"alpha": [value, 0.0]}}, non_finite),
        st.builds(
            lambda name, value: {"clock": {name: value}},
            scales,
            st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
        ),
        st.builds(
            lambda value: {"clock": {"damping": value}},
            st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
        ),
        st.builds(lambda grid: {"grid_size": grid}, st.integers(max_value=15)),
        st.builds(
            lambda grid: {"grid_size": grid},
            st.floats(16.0, 1e4).filter(lambda g: not g.is_integer()),
        ),
        st.builds(
            lambda seed: {"seed": seed},
            st.one_of(
                st.integers(max_value=-1),
                st.floats(0.0, 1e6).filter(lambda s: not s.is_integer()),
                non_finite,
                st.just("7"),
            ),
        ),
        st.builds(lambda options: {"options": options}, invalid_options(non_finite)),
    )


def invalid_options(non_finite):
    """Options outside the ranges the runners need, each alone in a document."""
    not_positive = st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)
    below_zero = st.floats(max_value=-1e-9)
    fractional = st.floats(0.0, 1e4).filter(lambda v: not v.is_integer())
    return st.one_of(
        st.builds(lambda v: {"window": v}, st.one_of(non_finite, not_positive)),
        st.builds(lambda v: {"scales": v}, st.just([])),
        st.builds(lambda v: {"scales": [10.0, v]}, st.one_of(non_finite, not_positive)),
        st.builds(lambda v: {"probe_time": v}, st.one_of(non_finite, below_zero)),
        st.builds(lambda v: {"probe_time": v}, st.floats(min_value=2.01, allow_infinity=False)),
        st.builds(lambda v: {"num_readings": v}, st.one_of(st.integers(max_value=0), fractional)),
        st.builds(
            lambda lo, hi: {"reading_span": [lo, hi]},
            st.floats(0.0, 1.0),
            st.floats(0.0, 1.0),
        ).filter(lambda o: o["reading_span"][0] >= o["reading_span"][1]),
        st.builds(lambda v: {"reading_span": [v, 0.5]}, st.one_of(non_finite, below_zero)),
        st.builds(lambda v: {"reading_span": [0.5, v]}, st.one_of(non_finite, st.floats(1.01))),
        st.builds(lambda v: {"reading_span": v}, st.sampled_from([[0.25], [0.1, 0.5, 0.9], 0.5])),
        st.builds(lambda v: {"x": v}, st.one_of(non_finite, st.just("mid"))),
    )


# One document per rule of the seed and option checks, run for every
# experiment ahead of the drawn documents.
BAD_DOCS = [
    {"seed": -1},
    {"seed": 1.5},
    {"seed": "7"},
    {"options": {"window": math.nan}},
    {"options": {"window": -1.0}},
    {"options": {"scales": []}},
    {"options": {"scales": [10.0, math.inf]}},
    {"options": {"scales": [10.0, 0.0]}},
    {"options": {"probe_time": -0.1}},
    {"options": {"probe_time": 2.5}},
    {"options": {"num_readings": 0}},
    {"options": {"num_readings": 2.5}},
    {"options": {"reading_span": [0.85, 0.25]}},
    {"options": {"reading_span": [-0.1, 0.5]}},
    {"options": {"reading_span": [0.25, math.nan]}},
    {"options": {"x": math.nan}},
    # Misspelt or unknown keys, which no runner reads.
    {"options": {"num_reading": 0}},
    {"options": {"windows": 0.05}},
    {"options": {"X": 1.0}},
    {"options": {"readings_span": [0.25, 0.85]}},
]


def with_examples(docs):
    def attach(test):
        for doc in reversed(docs):
            test = example(doc=doc)(test)
        return test

    return attach


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@settings(max_examples=10)
@given(doc=invalid_docs())
@with_examples(BAD_DOCS)
def test_invalid_config_raises_and_writes_no_csv(experiment, doc):
    with pytest.raises(ValidationError):
        resolve_config(experiment, doc)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")  # NaN and Infinity as JSON extensions
        assert main([experiment, "--config", str(config), "--out", str(Path(tmp) / "out")]) == 1
        assert not list(Path(tmp).rglob("*.csv"))


VALID_SYSTEM = {
    "dim": 2,
    "hamiltonian": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [-0.5, 0.0]],
    "initial_state": [[1.0, 0.0], [0.0, 0.0]],
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def malformed_docs():
    """Config documents that break one rule: a value of the wrong JSON type in
    one slot, or a key that no reader knows at one level."""
    non_numbers = json_values.filter(lambda v: not is_number(v) and v != "auto")
    non_lists = json_values.filter(lambda v: not isinstance(v, list))
    slots = {  # slot path: values that cannot be read there
        ("clock", "hbar"): non_numbers, ("clock", "mass"): non_numbers,
        ("clock", "omega"): non_numbers, ("clock", "damping"): non_numbers,
        ("clock", "n_reset"): non_numbers, ("clock", "phase"): non_numbers,
        ("clock", "alpha"): non_numbers.filter(
            lambda v: not (isinstance(v, list) and len(v) == 2 and all(map(is_number, v)))),
        ("system", "dim"): non_numbers, ("system", "hamiltonian"): non_lists,
        ("system", "initial_state"): non_lists,
        ("grid_size",): non_numbers, ("seed",): non_numbers,
        ("output_path",): json_values.filter(lambda v: not isinstance(v, str)),
        ("experiment",): json_values.filter(lambda v: v not in EXPERIMENTS),
        ("options", "window"): non_numbers, ("options", "probe_time"): non_numbers,
        ("options", "x"): non_numbers, ("options", "num_readings"): non_numbers,
        ("options", "scales"): non_lists, ("options", "reading_span"): non_lists,
        ("clock",): json_values.filter(lambda v: not isinstance(v, dict)),
        ("system",): json_values.filter(lambda v: not isinstance(v, dict)),
        ("options",): json_values.filter(lambda v: not isinstance(v, dict)),
    }

    def place(path, value):
        if path[0] == "system" and len(path) == 2:
            return {"system": dict(VALID_SYSTEM, **{path[1]: value})}
        return {path[0]: value} if len(path) == 1 else {path[0]: {path[1]: value}}

    known = {  # each level's known keys, and the document holding that level
        None: (("clock", "system", "experiment", "grid_size", "output_path", "seed", "options"),
               lambda part: part),
        "clock": (("hbar", "mass", "omega", "damping", "alpha", "n_reset", "phase"),
                  lambda part: {"clock": part}),
        "system": (tuple(VALID_SYSTEM), lambda part: {"system": dict(VALID_SYSTEM, **part)}),
        "options": (("window", "scales", "probe_time", "reading_span", "x", "num_readings"),
                    lambda part: {"options": part}),
    }

    def unknown_key(level):
        keys, wrap = known[level]
        key = st.text(max_size=8).filter(lambda k: k not in keys)
        return st.builds(lambda k, v: wrap({k: v}), key, json_values)

    return st.one_of(
        st.sampled_from(sorted(slots)).flatmap(
            lambda path: slots[path].map(lambda value: place(path, value))),
        json_values.filter(lambda v: not isinstance(v, dict) and v is not None),  # the root
        st.sampled_from(list(known)).flatmap(unknown_key),
    )


@contextlib.contextmanager
def in_directory(path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


@pytest.mark.parametrize("experiment", ["posterior", "oracle-check"])
@settings(max_examples=60)
@given(doc=malformed_docs(), sweep=st.none(), overrides=st.just({}))
@example(doc={"clock": {"dampng": 0.3}}, sweep=None, overrides={})
@example(doc={"grid": 100}, sweep=None, overrides={})
@example(doc={"system": {k: v for k, v in VALID_SYSTEM.items() if k != "dim"}}, sweep=None, overrides={})
@example(doc={"system": dict(VALID_SYSTEM, hamiltonian=5)}, sweep=None, overrides={})
@example(doc={"system": dict(VALID_SYSTEM, dim=2.5)}, sweep=None, overrides={})
@example(doc={"clock": {"mass": "big"}}, sweep=None, overrides={})
@example(doc={}, sweep="r=abc", overrides={})
@example(doc={"clock": {"alpha": True}}, sweep=None, overrides={})
@example(doc={"clock": {"damping": True}}, sweep=None, overrides={})
@example(doc={"output_path": ["a"]}, sweep=None, overrides={})
# A command-line override does not excuse the document's value it replaces.
@example(doc={"grid_size": "abc", "seed": True, "output_path": 5}, sweep=None,
         overrides={"grid": 64, "seed": 1, "out": "DIR"})
def test_main_never_escapes_the_boundary(experiment, doc, sweep, overrides):
    """A malformed config or sweep flag exits 1 with one JSON error line and writes nothing."""
    if sweep is None:
        with pytest.raises(ValidationError):
            resolve_config(experiment, doc, **overrides)
    with tempfile.TemporaryDirectory() as tmp, in_directory(tmp):
        Path("config.json").write_text(json.dumps(doc), encoding="utf-8")
        argv = [experiment, "--config", "config.json"] + (["--sweep", sweep] if sweep else [])
        argv += [part for name, value in overrides.items() for part in (f"--{name}", str(value))]
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            assert main(argv) == 1
        [line] = stderr.getvalue().splitlines()
        error = json.loads(line)["error"]
        assert issubclass(getattr(pwclock, error["type"]), ValidationError)
        assert isinstance(error["message"], str)
        assert os.listdir(".") == ["config.json"]


# ---------------------------------------------------------------------------
# The CSV writer: every float cell is exactly repr(float), text as is.
# ---------------------------------------------------------------------------


def repr_csv(header, columns):
    """The bytes the writer must produce, cell by cell through repr."""
    rows = zip(*[np.asarray(column).tolist() for column in columns])
    cells = ("".join(",".join(c if isinstance(c, str) else repr(c) for c in row) + "\n")
             for row in rows)
    return (",".join(header) + "\n" + "".join(cells)).encode("utf-8")


def assert_writes_repr(path, columns):
    header = [f"c{i}" for i in range(len(columns))]
    _csv._write_csv(path, header, columns)
    assert path.read_bytes() == repr_csv(header, columns)


def from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


@pytest.mark.parametrize(
    "columns, error",
    [
        ([np.array([0.5, 1.5]), np.array([1, 2])], TypeError),
        ([np.array([0.5, 1.5]), np.array([1 + 2j, 3j])], TypeError),
        ([np.array([0.5, 1.5]), np.array([0.5])], ValueError),
        ([np.array(["a", "b"]), np.array([0.5, 1.5, 2.5])], ValueError),
    ],
)
def test_bad_column_raises_before_the_csv_opens(tmp_path, columns, error):
    path = tmp_path / "bad.csv"
    with pytest.raises(error):
        _csv._write_csv(path, ["a", "b"], columns)
    assert not path.exists()


def test_text_cells_are_written_as_is(tmp_path, monkeypatch):
    # NUL and multi-byte characters included: the writer's padding byte,
    # 0xFF, never occurs in UTF-8.
    words = np.array(["a\0b", "\u00e9,x", "", "\U0001d70f"])
    assert_writes_repr(tmp_path / "text.csv", [np.linspace(0.0, 1.0, 4), words])
    # A categorical column over many blocks: the first blocks are ASCII
    # (empty and NUL-containing cells included), later ones mix in
    # multi-byte characters.
    monkeypatch.setattr(_csv, "_CSV_BLOCK_CELLS", 64)
    ascii_words = ["maximum", "minimum", "flat", "a\0b", "\0", ""]
    words = np.array(ascii_words * 20 + (ascii_words + ["\u00e9t\u00e9", "\U0001d70f\0x"]) * 10)
    assert_writes_repr(tmp_path / "categories.csv", [np.arange(words.size, dtype=float), words])


def test_rerun_into_a_used_directory_writes_what_a_fresh_one_gets(tmp_path, monkeypatch):
    # Files are rewritten in place and truncated: a grid-16 bundle written
    # over a grid-64 one equals, byte for byte, a grid-16 bundle written
    # into a fresh directory. A frozen clock makes the durations equal.
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    out = tmp_path / "out"
    assert main(["all", "--grid", "64", "--out", str(out)]) == 0
    larger = {path.name: path.stat().st_size for path in out.iterdir()}
    assert main(["all", "--grid", "16", "--out", str(out)]) == 0
    rerun = {path.name: path.read_bytes() for path in out.iterdir()}
    shutil.rmtree(out)
    assert main(["all", "--grid", "16", "--out", str(out)]) == 0
    fresh = {path.name: path.read_bytes() for path in out.iterdir()}
    assert rerun == fresh
    assert len(fresh) == 2 * len(EXPERIMENTS)
    assert all(len(fresh[f"{name}.csv"]) < larger[f"{name}.csv"]
               for name in EXPERIMENTS if name != "ideal-limit")
    for name in EXPERIMENTS:
        assert json.loads(fresh[f"{name}.meta.json"])["config"]["grid_size"] == 16


def test_failed_rewrite_leaves_no_earlier_bytes(tmp_path, monkeypatch):
    # A write that fails between blocks leaves the blocks written before the
    # failure and nothing of the longer file it replaces.
    path = tmp_path / "t.csv"
    _csv._write_csv(path, ["old"], [np.linspace(1.0, 2.0, 4000)])
    monkeypatch.setattr(_csv, "_CSV_BLOCK_CELLS", 100)
    format_floats, blocks = _csv._format_floats, []

    def failing_third_block(values):
        blocks.append(len(values))
        if len(blocks) == 3:
            raise RuntimeError("write failed")
        return format_floats(values)

    monkeypatch.setattr(_csv, "_format_floats", failing_third_block)
    new = np.linspace(3.0, 4.0, 1000)
    with pytest.raises(RuntimeError):
        _csv._write_csv(path, ["new"], [new])
    assert path.read_bytes() == repr_csv(["new"], [new[:200]])


def test_zero_row_csv_writes_only_the_header(tmp_path):
    path = tmp_path / "empty.csv"
    _csv._write_csv(path, ["a", "b"], [np.array([]), np.array([], dtype=str)])
    assert path.read_bytes() == b"a,b\n"


# Every float64 bit pattern: NaN, +-inf, +-0 and subnormals included.
bit_patterns = st.integers(0, 2**64 - 1)
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)


@settings(max_examples=200)
@given(data=st.data(), rows=st.integers(0, 40), width=st.integers(1, 4))
def test_float_cells_are_repr_for_any_bit_pattern(data, rows, width):
    floats = [from_bits(data.draw(st.lists(bit_patterns, min_size=rows, max_size=rows)))
              for _ in range(width)]
    words = np.array(data.draw(st.lists(texts, min_size=rows, max_size=rows)), dtype=str)
    columns = floats[:1] + [words] + floats[1:]
    with tempfile.TemporaryDirectory() as tmp:
        assert_writes_repr(Path(tmp) / "t.csv", columns)


def edge_values():
    """Values at every layout and rounding edge of repr."""
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, 1e16, 1e23, 9999999999999998.0, 2.0**89, 0.1, 0.3]
    values += [2.0**k for k in range(-1074, 1024)]
    values += [float(f"1e{k}") for k in range(-323, 309)]
    values += [math.nextafter(v, towards) for v in list(values) for towards in (-math.inf, math.inf)]
    for k in (53, 63):
        values += [float(2**k + j) for j in range(-40, 41)]
    rng = np.random.default_rng(0)
    for exponent in (-5, -4, 15, 16, 100, -100):
        values += (rng.random(50) * 10.0**exponent).tolist()
    values += [-v for v in values]
    return np.array(values)


def test_float_cells_are_repr_at_layout_and_rounding_edges(tmp_path):
    values = edge_values()
    assert_writes_repr(tmp_path / "edges.csv", [values, values[::-1]])


def test_float_cells_are_repr_for_random_bit_patterns(tmp_path):
    bits = np.random.default_rng(20).integers(0, 2**64, 200_000, dtype=np.uint64)
    assert_writes_repr(tmp_path / "sweep.csv", list(bits.view(np.float64).reshape(4, -1)))


def test_repr_fallback_alone_writes_the_same_bytes(tmp_path, monkeypatch):
    # With an infinite tolerance the kernel settles no decision, so every
    # cell is formatted by repr itself.
    rng = np.random.default_rng(21)
    typical = np.concatenate([rng.random(4000), rng.standard_normal(4000) * 1e8])
    monkeypatch.setattr(_csv, "_TOL", math.inf)
    ok = np.ones(typical.size, bool)
    _csv._shortest(np.abs(typical), ok)
    assert not ok.any()
    assert_writes_repr(tmp_path / "fallback.csv", [np.concatenate([edge_values(), typical])])


def test_digit_kernel_settles_typical_values():
    # repr is only the fallback: typical values keep the kernel's digits,
    # next to powers of ten (where log10 misjudges E) too.
    rng = np.random.default_rng(22)
    tens = [float(f"1e{k}") for k in range(-90, 16)]
    tens = [math.nextafter(v, towards) for v in tens for towards in (0.0, math.inf)]
    values = np.concatenate([np.linspace(0.0, 2.0, 4097)[1:], rng.random(4096),
                             rng.standard_normal(4096), tens])
    ok = np.ones(values.size, bool)
    _csv._shortest(np.abs(values), ok)
    assert ok.mean() > 0.99
    assert ok[-len(tens):].mean() > 0.99


@pytest.mark.parametrize("last", ["float", "str", "float only"])
def test_separators_and_newlines_under_any_block_budget(tmp_path, monkeypatch, last):
    # Each float cell carries its separator; the last column's becomes the
    # newline, wherever a block starts or ends, also on repr-fallback cells.
    rng = np.random.default_rng(23)
    rows = 1000
    fallbacks = [-0.0, math.nan, 1e-300, 2.0**-3, 2.0**40, -math.inf, 5e-324]
    edgy = np.resize(np.concatenate([fallbacks, rng.standard_normal(5)]), rows)
    words = np.resize(np.array(["maximum", "", "flat", "a\0b", "été"]), rows)
    columns = {
        "float": [rng.random(rows), words, edgy],
        "str": [edgy, rng.standard_normal(rows) * 1e8, words],
        "float only": [rng.random(rows) * 1e-7, edgy],
    }[last]
    header = [f"c{i}" for i in range(len(columns))]
    expected = repr_csv(header, columns)
    for budget in (1, 100, _csv._CSV_BLOCK_CELLS, 2**16):
        monkeypatch.setattr(_csv, "_CSV_BLOCK_CELLS", budget)
        path = tmp_path / f"{budget}.csv"
        _csv._write_csv(path, header, columns)
        assert path.read_bytes() == expected, budget


def test_tables_experiments_send_the_same_cells_to_repr(tmp_path, monkeypatch):
    # The digit kernel settles all but 54 of the 155,664 float cells of the
    # six per-row experiments at grid 8192; repr formats the rest. A kernel
    # that sends more cells to repr still writes the right bytes, so the
    # count is pinned here.
    shortest, cells = _csv._shortest, []

    def counting(a, ok):
        digits = shortest(a, ok)
        cells.append((int(np.count_nonzero(~ok)), ok.size))
        return digits

    monkeypatch.setattr(_csv, "_shortest", counting)
    for name in ("clock-profile", "damping-opt", "timemap", "evolve-compare", "posterior",
                 "ideal-limit"):
        assert main([name, "--grid", "8192", "--out", str(tmp_path)]) == 0
    assert [sum(column) for column in zip(*cells)] == [54, 155_664]


_COLD_START = """
import json, sys
from pwclock import cli
argparse_on_import = "argparse" in sys.modules
out = sys.argv[1]
codes = [cli.main(["all", "--out", out + "/all"]),
         cli.main(["oracle-check", "--sweep", "r=0.2,0.4", "--out", out + "/sweep"])]
names = ("numpy.random", "secrets", "hashlib", "concurrent.futures")
loaded = [name for name in names if name in sys.modules]
import concurrent.futures
pool = cli.ThreadPoolExecutor is concurrent.futures.ThreadPoolExecutor
try:
    cli.NoSuchName
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps([argparse_on_import, codes, loaded, pool, missing]))
"""


def test_cli_process_loads_no_rng_hash_or_pool_module(tmp_path):
    # A fresh process that runs the bundle and an oracle-check sweep draws its
    # readings from pwclock._rng, imports argparse only inside main, and
    # imports concurrent.futures only when cli.ThreadPoolExecutor is read.
    package_root = Path(pwclock.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _COLD_START, str(tmp_path)],
        capture_output=True,
        text=True,
        env={"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(package_root),
             "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    argparse_on_import, codes, loaded, pool, missing = json.loads(proc.stdout)
    assert not argparse_on_import
    assert codes == [0, 0]
    assert loaded == []
    assert pool
    assert missing == "module 'pwclock.cli' has no attribute 'NoSuchName'"
