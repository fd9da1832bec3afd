import ast
import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tomllib
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pwclock
from pwclock import ValidationError, _csv, cli, params
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
    assert header == ["n", "r_star", "rate_at_r_star"]
    for row in rows:
        assert float(row[0]) * float(row[1]) == pytest.approx(1.0, rel=1e-12)
    # Every row is a maximum, so meta.json records the classification once.
    meta = json.loads((out / "damping-opt.meta.json").read_text(encoding="utf-8"))
    assert meta["classification"] == ["maximum"]


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
    assert set(meta) == {"schema_version", "experiment", "csv_header", "csv_file",
                         "library_version", "duration_seconds", "config", "derived",
                         "worst_row_fidelity"}
    derived = meta["derived"]
    clock = meta["config"]["clock"]
    omega, r = clock["omega"], clock["damping"]
    assert derived["damped_frequency"] == pytest.approx(math.sqrt(omega**2 - r**2 / 4.0))
    assert derived["amplitude"] > 0.0
    assert derived["rescaled_generator_norm"] > 0.0
    assert clock["alpha"] == 1.0
    assert len(meta["config"]["system"]["hamiltonian"]) == 4


@pytest.mark.parametrize("dim", range(2, 7))
def test_rescaled_generator_norm_matches_an_independent_svd(tmp_path, dim):
    # meta.json's norm is 2*max|E|/(r*A) from the eigenvalues; the SVD of
    # 2*H/(r*A) is its independent oracle. The state's length sets the dimension.
    rng = np.random.default_rng(dim)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    hamiltonian = (raw + raw.conj().T) / 2.0
    system = {
        "hamiltonian": [[z.real, z.imag] for z in hamiltonian.reshape(-1)],
        "initial_state": [[1.0, 0.0]] + [[0.0, 0.0]] * (dim - 1),
    }
    for clock in ({}, {"damping": 0.1, "n_reset": 1.5, "mass": 7.0, "alpha": 0.3}):
        cfg = resolve_config("clock-profile", {"system": system, "clock": clock}, str(tmp_path), 16)
        norm = json.loads(run(cfg).meta_path.read_text())["derived"]["rescaled_generator_norm"]
        scale = cfg.clock.damping * cfg.clock.amplitude
        svd = np.linalg.norm(2.0 * cfg.system.hamiltonian / scale, 2)
        assert abs(norm - svd) <= 4 * math.ulp(svd)


# Configs whose norm 2*max|E|/(r*A) is not a finite float: r*A underflows to 0, or the
# quotient overflows. The norm is written as null, as at r = 0.
UNBOUNDED_NORMS = {
    "r*A-underflows": {"clock": {"damping": 5e-324, "alpha": 0.28284271247461906}},
    "norm-overflows": {
        "clock": {"damping": 1e-300, "n_reset": 1.5},
        "system": {"hamiltonian": [1e300, 0.0, 0.0, -1e300], "initial_state": [1.0, 0.0]},
    },
}


@pytest.mark.parametrize("name", UNBOUNDED_NORMS)
def test_an_unbounded_rescaled_generator_norm_is_null(tmp_path, name):
    out = tmp_path / "out"
    argv = ["clock-profile", "--out", str(out), "--config", write_config(tmp_path, UNBOUNDED_NORMS[name])]
    assert main(argv) == 0
    derived = json.loads((out / "clock-profile.meta.json").read_text())["derived"]
    assert derived["rescaled_generator_norm"] is None and derived["amplitude"] > 0.0


def test_a_failing_derived_constant_writes_no_file(tmp_path, capsys):
    # The derived constants are computed with the table, before any file is written: here
    # the generator's eigenvalues overflow, which clock-profile's table does not read. An
    # undamped clock, whose norm 2*max|E|/(r*A) is null, forms the eigenvalues too.
    system = {"hamiltonian": [1.7e308, 1.7e308, 1.7e308, -1.7e308], "initial_state": [1.0, 0.0]}
    out = tmp_path / "out"
    for clock in ({}, {"damping": 0.0}):
        doc = {"clock": clock, "system": system}
        argv = ["clock-profile", "--out", str(out), "--config", write_config(tmp_path, doc)]
        assert main(argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "NumericalError"
        assert error["message"].startswith("eigenvalues of the generator overflow")
        assert not out.exists()


def test_sweep_with_tied_reset_horizon(tmp_path):
    doc = {"clock": {"damping": 0.5, "n_reset": "auto"}}
    entries = sweep("clock-profile", doc, "r", [0.01, 0.05, 0.1], out=str(tmp_path / "sw"))
    assert [e["status"] for e in entries] == ["ok", "ok", "ok"]
    index = json.loads((tmp_path / "sw" / "sweep_index.json").read_text())
    assert index["parameter"] == "r"
    assert [e["value"] for e in index["runs"]] == [0.01, 0.05, 0.1]
    meta = json.loads((tmp_path / "sw" / "r=0.05" / "clock-profile.meta.json").read_text())
    assert meta["config"]["clock"]["n_reset"] == pytest.approx(20.0)


def test_sweep_grid_refinement_on_posterior(tmp_path):
    entries = sweep("posterior", None, "grid_size", [2048, 4096], out=str(tmp_path / "sw"))
    assert all(e["status"] == "ok" for e in entries)
    norms = []
    for value in (2048, 4096):
        meta = json.loads(
            (tmp_path / "sw" / f"grid_size={value}" / "posterior.meta.json").read_text()
        )
        norms.append(meta["norm_raw"])
    assert abs(norms[1] - norms[0]) / norms[0] <= 1e-6


def test_a_grid_size_sweep_refuses_a_grid_override(tmp_path, capsys):
    message = "a grid_size sweep takes no grid override, got grid = 64"
    out = tmp_path / "sw"
    with pytest.raises(ValidationError, match=f"^{message}$"):
        sweep("clock-profile", None, "grid_size", [16, 32], out=str(out), grid=64)
    assert main(["clock-profile", "--out", str(out), "--grid", "64", "--sweep", "grid_size=16,32"]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": {"type": "ValidationError", "message": message}}
    assert not out.exists()


def test_sweep_rejects_empty_values(tmp_path):
    with pytest.raises(ValidationError, match="^sweep requires at least one value$"):
        sweep("clock-profile", None, "r", [], out=str(tmp_path / "sw"))


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


@pytest.mark.parametrize("flag, shown", [("r=0.1,0.1", "0.1"), ("r=1,1.0", "1.0"),
                                         ("grid_size=16,16.0", "16")])
def test_a_repeated_sweep_flag_value_exits_one(tmp_path, capsys, flag, shown):
    # Each value is compared as the flag reads it, so 1 and 1.0 are one value.
    out = tmp_path / "o"
    assert main(["clock-profile", "--out", str(out), "--sweep", flag]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": {
        "type": "ValidationError", "message": f"sweep value {shown} repeats an earlier value"}}
    assert not out.exists()


@pytest.mark.parametrize("parameter, values, shown", [
    ("r", [0.2, 0.1, 0.1], "0.1"),
    ("r", [1, 1.0], "1.0"),
    ("grid_size", [16, 32, 16], "16"),
    ("damping", ["auto", 0.5, "auto"], "'auto'"),
])
def test_sweep_refuses_a_repeated_value_before_any_run(tmp_path, parameter, values, shown):
    out = tmp_path / "sw"
    with pytest.raises(ValidationError, match=f"^sweep value {shown} repeats an earlier value$"):
        sweep("clock-profile", None, parameter, values, out=str(out))
    assert not out.exists()


def test_sweep_index_is_strict_json(tmp_path):
    with pytest.raises(ValueError):
        sweep("clock-profile", None, "r", [math.nan], out=str(tmp_path / "sw"))  # the run fails, and NaN has no JSON spelling
    assert not (tmp_path / "sw" / "sweep_index.json").exists()


OVER_DAMPED = "under-damping requires r/2 < omega, got r/2 = 2.5 >= omega = 1.0"


def test_sweep_records_per_value_failures(tmp_path):
    entries = sweep("clock-profile", None, "r", [0.1, 5.0], out=str(tmp_path / "sw"))  # 5.0 is over-damped
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


def test_a_negative_zero_damping_runs_as_zero(tmp_path):
    # ClockParams(damping=-0.0) equals ClockParams(damping=0.0): the rates are written
    # positive, and meta.json records 0.0, from a config and from a sweep alike.
    outputs = {}
    for value in ("0.0", "-0.0"):
        config = write_config(tmp_path, {"clock": {"damping": float(value)}}, f"{value}.json")
        assert main(["clock-profile", "--grid", "16", "--out", str(tmp_path / value),
                     "--config", config]) == 0
        assert main(["clock-profile", "--grid", "16", "--out", str(tmp_path / "sw"),
                     "--sweep", f"r={value}"]) == 0
        outputs[value] = [tmp_path / value, tmp_path / "sw" / f"r={value}"]
    for plain, negative in zip(outputs["0.0"], outputs["-0.0"], strict=True):
        csv = (plain / "clock-profile.csv").read_bytes()
        assert (negative / "clock-profile.csv").read_bytes() == csv
        assert all(row.endswith(",0.0") for row in csv.decode().splitlines()[1:])  # the rate
        meta = (negative / "clock-profile.meta.json").read_text(encoding="utf-8")
        assert '"damping": 0.0,' in meta


def test_sweep_reset_horizon_rederives_recommended_damping(tmp_path):
    doc = {"clock": {"damping": "auto", "n_reset": 2.0}}
    assert resolve_config("clock-profile", doc).clock.damping == pytest.approx(0.5)
    entries = sweep("clock-profile", doc, "n_reset", [4.0, 8.0], out=str(tmp_path / "sw"))
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
    doc = {"clock": TIED_CLOCKS[tie], "grid_size": 16}
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
        assert config["clock"] == asdict(expected.clock)
        assert config["grid_size"] == expected.grid_size
    assert code == (0 if all(entry["status"] == "ok" for entry in entries) else 1)


# A sweep of each kind and its values: r and n_reset each under the other's
# "auto", and the grid.
SWEEPS = {
    "r": ({"damping": 0.5, "n_reset": "auto"}, [0.5, 1.0]),
    "n_reset": ({"damping": "auto", "n_reset": 2.0}, [1.0, 4.0]),
    "grid_size": ({}, [16, 32]),
}


@pytest.mark.parametrize("parameter", SWEEPS)
def test_a_sweep_writes_what_a_plain_run_writes(tmp_path, parameter):
    clock, values = SWEEPS[parameter]
    doc = {"clock": clock, "grid_size": 64}
    entries = sweep("posterior", doc, parameter, values, out=str(tmp_path / "sw"))
    for value, entry in zip(values, entries, strict=True):
        if parameter == "grid_size":
            edited = dict(doc, grid_size=value)
        else:
            edited = dict(doc, clock=dict(clock, **{"damping" if parameter == "r" else parameter: value}))
        plain = run(resolve_config("posterior", edited, out=str(tmp_path / "plain" / str(value))))
        assert entry["status"] == "ok"
        assert Path(entry["csv"]).read_bytes() == plain.csv_path.read_bytes()


def test_a_sweep_of_a_bad_document_runs_nothing(tmp_path):
    out = tmp_path / "sw"
    with pytest.raises(ValidationError, match=f"^{re.escape(OVER_DAMPED)}$"):
        sweep("clock-profile", {"clock": {"damping": 5.0}}, "r", [0.1], out=str(out))
    # A bad parameter is named before a bad document.
    with pytest.raises(ValidationError, match="^parameter 'hbar' is not sweepable"):
        sweep("clock-profile", {"clock": {"damping": 5.0}}, "hbar", [0.1], out=str(out))
    assert not out.exists()


def test_sweep_to_zero_damping_under_a_tied_horizon_is_rejected(tmp_path):
    # The horizon 1/r has no value at r = 0: the value fails as its config
    # would, instead of running with the horizon of the previous damping.
    entries = sweep("clock-profile", {"clock": TIED_CLOCKS["n_reset auto"]}, "r", [0.0, 0.5],
                    out=str(tmp_path / "sw"))
    assert entries[0]["status"] == "error"
    assert entries[0]["error"]["type"] == "ValidationError"
    assert entries[1]["status"] == "ok"


@pytest.mark.parametrize(
    "extra, doc",
    [
        (["--seed", "-1"], None),
        # Valid for the first experiments' clock (r = 0.5), not for the time-map
        # clock (r = 1/1.5), so the bundle fails part way through.
        ([], {"clock": {"n_reset": 1.8}}),
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


def test_a_null_config_file_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["oracle-check", "--out", str(out), "--config", write_config(tmp_path, None)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": {
        "type": "ValidationError", "message": "config must be a JSON object, got NoneType"}}
    assert not out.exists()


def test_unknown_option_is_named(tmp_path, capsys):
    # The clock has no global phase, and a system's dimension is its state's length: a config
    # that sets either is refused, not ignored.
    system = {"dim": 2, "hamiltonian": [0.5, 0.0, 0.0, -0.5], "initial_state": [1.0, 0.0]}
    for doc, named in [({"options": {"num_reading": 0}}, "['num_reading']"),
                       ({"clock": {"phase": 0.0}}, "unknown clock key(s) ['phase']"),
                       ({"system": system}, "unknown system key(s) ['dim']"),
                       ({"system": dict(system, dim=10**3000)}, "unknown system key(s) ['dim']")]:
        argv = ["oracle-check", "--out", str(tmp_path / "out"),
                "--config", write_config(tmp_path, doc)]
        assert main(argv) == 1
        assert named in json.loads(capsys.readouterr().err)["error"]["message"]
        assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("experiment, key, value", [
    ("ideal-limit", "window", 0.05),
    ("ideal-limit", "probe_time", 0.5),
    ("oracle-check", "reading_span", [0.25, 0.85]),
])
def test_a_fixed_setting_is_not_an_option(tmp_path, capsys, experiment, key, value):
    # The window 0.05, the probe time n_reset/3 and the reading span [0.25, 0.85) are fixed.
    argv = [experiment, "--out", str(tmp_path / "out"),
            "--config", write_config(tmp_path, {"options": {key: value}})]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err) == {"error": {
        "type": "ValidationError",
        "message": f"unknown options key(s) ['{key}']; expected any of ['num_readings', 'scales', 'x']",
    }}
    assert not (tmp_path / "out").exists()


def test_resolve_config_guards():
    with pytest.raises(ValidationError):
        resolve_config("not-an-experiment")
    with pytest.raises(ValidationError):
        resolve_config("posterior", {"grid_size": 8})
    with pytest.raises(ValidationError):
        resolve_config("posterior", {"clock": {"damping": "auto", "n_reset": "auto"}})


# A clock document and the message resolve_config raises for it: "auto" is
# resolved, and each field read, before the clock's own rules are checked.
BAD_CLOCK_MESSAGES = [
    ({"damping": "auto", "n_reset": -1.0}, "recommendation requires n_reset > 0, got -1.0"),
    ({"damping": "auto", "n_reset": 0.1},
     "under-damping requires r/2 < omega, got r/2 = 5.0 >= omega = 1.0"),
    ({"damping": "auto", "mass": -1.0},
     "hbar, mass, omega must be positive finite numbers, got (1.0, -1.0, 1.0)"),
    ({"damping": -1.0, "alpha": math.nan}, "damping must be a finite number >= 0, got -1.0"),
    ({"damping": 5.0, "alpha": -1.0},
     "under-damping requires r/2 < omega, got r/2 = 2.5 >= omega = 1.0"),
    ({"damping": "abc", "alpha": -1.0}, "damping must be a number, got 'abc'"),
    ({"damping": 0.9, "n_reset": 2.0, "alpha": -1.0},
     "n_reset = 2.0 exceeds the running-time limit 1/r = 1.1111111111111112"),
    ({"n_reset": "auto", "damping": 0.5, "alpha": 0.0},
     "amplitude sqrt(2*hbar/(m*omega))*alpha = 0.0 must be a finite number > 0 for the time-map"
     " inversion"),
    # The overflow of 1/n_reset is named, not the damping it would give.
    ({"damping": "auto", "n_reset": 1e-320}, "n_reset = 1e-320 overflows 1/n_reset"),
]


@pytest.mark.parametrize("clock, message", BAD_CLOCK_MESSAGES)
def test_a_bad_clock_document_fails_with_its_first_rule(clock, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        resolve_config("clock-profile", {"clock": clock})


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
    [entry] = sweep("posterior", None, "grid_size", [10**20], out=str(tmp_path))
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
    "all --sweep r=0.1": "--sweep is not supported with the 'all' bundle",
    "oracle-check --sweep hbar=1": "parameter 'hbar' is not sweepable",
    "oracle-check --sweep r": "--sweep expects param=v1,v2,...",
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


def test_ideal_limit_builds_each_scaled_clock_in_one_step():
    # At alpha = 1e-300 a clock with only its mass scaled to 1e60 has an
    # amplitude that underflows to 0; the scaled clock, amplitude kept, is valid.
    cfg = resolve_config(
        "ideal-limit", {"clock": {"alpha": 1e-300}, "options": {"scales": [1e60]}}, None, 64
    )
    table, extras, _ = cli._compute(cfg)
    assert table["mass_omega"] == [1e60]
    assert extras["amplitude"] == cfg.clock.amplitude
    assert 0.0 <= table["mass_fraction"][0] <= 1.0


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


def test_a_generator_of_the_wrong_length_is_named():
    # Below dimension 2 the dimension is what is wrong, whatever the generator's length.
    for system, message in [
        ({"hamiltonian": [[0.5, 0.0], [0.0, 0.0], [-0.5, 0.0]], "initial_state": [1.0, 0.0]},
         r"^system\.hamiltonian must be a row-major list of 4 \[re, im\] pairs$"),
        ({"hamiltonian": [0.5, 0, 0, -0.5], "initial_state": [1]},
         r"^system dimension must be >= 2, got 1$"),
    ]:
        with pytest.raises(ValidationError, match=message):
            resolve_config("evolve-compare", {"system": system})


def test_each_config_builds_each_object_once(monkeypatch):
    # A "damping": "auto" config builds, and so checks, exactly one clock.
    calls, validate = [], params.validate_clock_params
    monkeypatch.setattr(params, "validate_clock_params",
                        lambda clock: validate(calls.append(clock) or clock))
    cfg = resolve_config("posterior", {"clock": {"damping": "auto", "n_reset": 4.0}})
    assert calls == [cfg.clock] and cfg.clock.damping == 0.25
    # Configs without "system" share one demo-qubit spec.
    assert resolve_config("oracle-check").system is resolve_config("evolve-compare").system
    # Options hold the values their rules read, so no runner converts one.
    doc = {"options": {"scales": [10, 100.0], "x": -1, "num_readings": 8.0}}
    options = resolve_config("oracle-check", doc).options
    types = {name: [type(v) for v in value] if isinstance(value, list) else type(value)
             for name, value in options.items()}
    assert types == {"scales": [float, float], "x": float, "num_readings": int}
    assert options == {"scales": [10.0, 100.0], "x": -1.0, "num_readings": 8}


def test_the_cli_has_one_resolver(tmp_path, monkeypatch):
    # Only resolve_config reads a clock, system or options document...
    readers = {"_clock_from_doc", "_system_from_doc", "_options_from_doc"}
    callers: dict = {}
    for statement in ast.parse(Path(cli.__file__).read_text(encoding="utf-8")).body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in readers:
                callers.setdefault(node.func.id, set()).add(getattr(statement, "name", None))
    assert callers == dict.fromkeys(readers, {"resolve_config"})
    # ...the config's keys are the record's fields...
    assert tuple(field.name for field in fields(cli.ExperimentConfig)) == cli._CONFIG_KEYS
    # ...and a sweep runs exactly the configs it resolves, after its base config.
    made, ran, resolve, run_one = [], [], cli.resolve_config, cli.run
    monkeypatch.setattr(cli, "resolve_config", lambda *args: made.append(resolve(*args)) or made[-1])
    monkeypatch.setattr(cli, "run", lambda cfg: ran.append(cfg) or run_one(cfg))
    sweep("clock-profile", {"grid_size": 16}, "r", [0.1, 0.2], out=str(tmp_path))
    assert len(made) == 3 and [id(cfg) for cfg in ran] == [id(cfg) for cfg in made[1:]]


# Config values holding an int too large for repr: each message counts its digits.
HUGE_VALUES = {
    "x": ({"options": {"x": 10**5000}}, "option x must be a finite number, got an int of 5001"),
    "scales": (
        {"options": {"scales": [1.0, 10**5000]}},
        "option scales must be a non-empty list of finite numbers > 0, got [1.0, an int of 5001",
    ),
    "output_path": (
        {"output_path": [10**5000]}, "output_path must be a string, got [an int of 5001"
    ),
    "hamiltonian": (
        {"system": {"hamiltonian": {"a": 10**5000}, "initial_state": [1.0, 0.0]}},
        "system.hamiltonian must be a list of numbers or [re, im] pairs, got {'a': an int of 5001",
    ),
    "experiment": ({"experiment": 10**5000}, "experiment must be one of"),
    "key": ({10**5000: 1}, "unknown config key(s) [an int of 5001"),
}


@pytest.mark.parametrize("name", HUGE_VALUES)
def test_a_huge_config_value_is_shown_by_its_digit_count(name):
    doc, message = HUGE_VALUES[name]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}") as raised:
        resolve_config("posterior", doc)
    assert "int of 5001 digits" in str(raised.value) and len(str(raised.value)) < 200
    # A 400-digit int, which repr could show, is counted too.
    if name == "x":
        with pytest.raises(ValidationError, match="got an int of 401 digits$"):
            resolve_config("posterior", {"options": {"x": 10**400}})


REAL_CLOCK_FIELDS = ("hbar", "mass", "omega", "damping", "alpha", "n_reset")


@pytest.mark.parametrize("clock", [{}, {"mass": 2, "alpha": 0.5}, {"n_reset": "auto"}])
def test_the_cli_reads_no_clock_field_the_clock_reads(monkeypatch, clock):
    # The CLI resolves only "auto"; ClockParams alone reads the type of each
    # field, so each is read once.
    reads, read = [], params._real
    def counted(name, value):
        reads.append(name.removeprefix("clock."))
        return read(name, value)
    monkeypatch.setattr(params, "_real", counted)
    monkeypatch.setattr(cli, "_real", counted)
    resolve_config("clock-profile", {"clock": clock})
    assert {name: reads.count(name) for name in REAL_CLOCK_FIELDS} == dict.fromkeys(
        REAL_CLOCK_FIELDS, 1)


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
        "alpha": draw(st.floats(0.3, 2.0)),
        "n_reset": draw(st.floats(0.3, 1.0)) * horizon,
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
    assert list(meta["config"]["system"]) == ["hamiltonian", "initial_state"]
    assert np.array_equal(again.system.hamiltonian, first.system.hamiltonian)
    assert np.array_equal(again.system.initial_state, first.system.initial_state)
    assert (again.grid_size, again.options, again.seed) == (first.grid_size, first.options, first.seed)


def invalid_docs():
    non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
    fields = st.sampled_from(["hbar", "mass", "omega", "damping", "alpha", "n_reset"])
    scales = st.sampled_from(["hbar", "mass", "omega", "n_reset"])
    return st.one_of(
        st.builds(lambda name, value: {"clock": {name: value}}, fields, non_finite),
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
    fractional = st.floats(0.0, 1e4).filter(lambda v: not v.is_integer())
    return st.one_of(
        st.builds(lambda v: {"scales": v}, st.just([])),
        st.builds(lambda v: {"scales": [10.0, v]}, st.one_of(non_finite, not_positive)),
        st.builds(lambda v: {"num_readings": v}, st.one_of(st.integers(max_value=0), fractional)),
        st.builds(lambda v: {"x": v}, st.one_of(non_finite, st.just("mid"))),
    )


# One document per rule of the seed and option checks, run for every
# experiment ahead of the drawn documents.
BAD_DOCS = [
    {"seed": -1},
    {"seed": 1.5},
    {"seed": "7"},
    {"options": {"scales": []}},
    {"options": {"scales": [10.0, math.inf]}},
    {"options": {"scales": [10.0, 0.0]}},
    {"options": {"num_readings": 0}},
    {"options": {"num_readings": 2.5}},
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
        ("clock", "n_reset"): non_numbers, ("clock", "alpha"): non_numbers,
        ("system", "hamiltonian"): non_lists, ("system", "initial_state"): non_lists,
        ("grid_size",): non_numbers, ("seed",): non_numbers,
        ("output_path",): json_values.filter(lambda v: not isinstance(v, str)),
        ("experiment",): json_values.filter(lambda v: v not in EXPERIMENTS),
        ("options", "x"): non_numbers, ("options", "num_readings"): non_numbers,
        ("options", "scales"): non_lists,
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
        "clock": (("hbar", "mass", "omega", "damping", "alpha", "n_reset"),
                  lambda part: {"clock": part}),
        "system": (tuple(VALID_SYSTEM), lambda part: {"system": dict(VALID_SYSTEM, **part)}),
        "options": (("scales", "x", "num_readings"),
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
@example(doc={"system": dict(VALID_SYSTEM, hamiltonian=5)}, sweep=None, overrides={})
# The dimension is the state's length: a "dim" key is unknown, however large.
@example(doc={"system": dict(VALID_SYSTEM, dim=10**3000)}, sweep=None, overrides={})
@example(doc={"clock": {"mass": "big"}}, sweep=None, overrides={})
@example(doc={}, sweep="r=abc", overrides={})
@example(doc={"clock": {"alpha": True}}, sweep=None, overrides={})
@example(doc={"clock": {"damping": True}}, sweep=None, overrides={})
@example(doc={"output_path": ["a"]}, sweep=None, overrides={})
# Clocks whose omega**2 overflows, or whose m*omega underflows, are refused by a rule.
@example(doc={"clock": {"omega": 1e200, "mass": 1e-200}}, sweep=None, overrides={})
@example(doc={"clock": {"mass": 1e-200, "omega": 1e-200, "damping": 0}}, sweep=None, overrides={})
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
# The CSV writer: every cell is exactly repr(float), and only floats are written.
# ---------------------------------------------------------------------------


def repr_csv(header, columns):
    """The bytes the writer must produce, cell by cell through repr."""
    rows = zip(*[np.asarray(column).tolist() for column in columns])
    cells = ("".join(",".join(map(repr, row)) + "\n") for row in rows)
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
        ([np.array([0.5, 1.5, 2.5], dtype=np.float32), np.array([0.5, 1.5])], ValueError),
        ([np.array(["a", "b"]), np.array([0.5, 1.5])], TypeError),
        # The dtypes are checked before the lengths.
        ([np.array([0.5, 1.5]), np.array(["a", "b", "c"])], TypeError),
    ],
)
def test_bad_column_raises_before_the_csv_opens(tmp_path, columns, error):
    path = tmp_path / "bad.csv"
    with pytest.raises(error) as raised:
        _csv._write_csv(path, ["a", "b"], columns)
    if error is TypeError:
        dtypes = [str(column.dtype) for column in columns]
        assert str(raised.value) == f"CSV columns must be float, got dtypes {dtypes}"
    assert not path.exists()


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
    _csv._write_csv(path, ["a", "b"], [np.array([]), np.array([])])
    assert path.read_bytes() == b"a,b\n"


# Every float64 bit pattern: NaN, +-inf, +-0 and subnormals included.
bit_patterns = st.integers(0, 2**64 - 1)


@settings(max_examples=200)
@given(data=st.data(), rows=st.integers(0, 40), width=st.integers(1, 4))
def test_float_cells_are_repr_for_any_bit_pattern(data, rows, width):
    columns = [from_bits(data.draw(st.lists(bit_patterns, min_size=rows, max_size=rows)))
               for _ in range(width)]
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
    # Each cell carries its separator; the last column's becomes the newline,
    # wherever a block starts or ends, also on repr-fallback cells. A str
    # column is refused before the file opens, whatever the budget.
    rng = np.random.default_rng(23)
    rows = 1000
    fallbacks = [-0.0, math.nan, 1e-300, 2.0**-3, 2.0**40, -math.inf, 5e-324]
    edgy = np.resize(np.concatenate([fallbacks, rng.standard_normal(5)]), rows)
    columns = {
        "float": [rng.random(rows), rng.standard_normal(rows) * 1e8, edgy],
        "str": [edgy, rng.standard_normal(rows) * 1e8, np.resize(np.array(["maximum", ""]), rows)],
        "float only": [rng.random(rows) * 1e-7, edgy],
    }[last]
    header = [f"c{i}" for i in range(len(columns))]
    for budget in (1, 100, _csv._CSV_BLOCK_CELLS, 2**16):
        monkeypatch.setattr(_csv, "_CSV_BLOCK_CELLS", budget)
        path = tmp_path / f"{budget}.csv"
        if last == "str":
            with pytest.raises(TypeError):
                _csv._write_csv(path, header, columns)
            assert not path.exists()
        else:
            _csv._write_csv(path, header, columns)
            assert path.read_bytes() == repr_csv(header, columns), budget


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


# oracle-check's n column at its defaults (5 readings, n_reset = 1.5): the times 0.25 + 0.6*u,
# sorted and scaled by n_reset, with u drawn by random.Random(seed).random(). Python keeps
# that stream for a seed in every version, so these reprs hold on each interpreter CI runs.
READING_TIMES = {
    0: ["0.6080250752636669", "0.7535144227477604", "0.8351472492317478",
        "1.0571589626462723", "1.1349796663725433"],
    5: ["0.9356115254007317", "1.0409087172659377", "1.0426082903346565",
        "1.090674209009127", "1.2232052553993453"],
    2**100 + 7: ["0.6690884842088751", "0.7494374519152216", "0.7841507317033295",
                 "0.8760035344604711", "1.0293211056477984"],
}


@pytest.mark.parametrize("seed", READING_TIMES)
def test_oracle_check_reading_times_are_pinned(tmp_path, seed):
    assert main(["oracle-check", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "oracle-check.csv")
    assert header[0] == "n"
    assert [row[0] for row in rows] == READING_TIMES[seed]


_COLD_START = """
import json, sys
from pwclock import cli
argparse_on_import = "argparse" in sys.modules
out = sys.argv[1]
codes = [cli.main(["all", "--out", out + "/all"]),
         cli.main(["oracle-check", "--sweep", "r=0.2,0.4", "--out", out + "/sweep"])]
names = ("numpy.random", "secrets", "hashlib", "concurrent.futures")
loaded = [name for name in names if name in sys.modules]
pool = cli.ThreadPoolExecutor is None
try:
    cli.NoSuchName
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps([argparse_on_import, codes, loaded, pool, missing]))
"""


def test_cli_process_loads_no_rng_hash_or_pool_module(tmp_path):
    # A fresh process that runs the bundle and an oracle-check sweep draws its
    # readings from the standard library's random.Random, which loads neither
    # secrets nor hashlib, imports argparse only inside main, and never imports
    # concurrent.futures: cli.ThreadPoolExecutor is a placeholder.
    proc = run_child(["-c", _COLD_START, str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    argparse_on_import, codes, loaded, pool, missing = json.loads(proc.stdout)
    assert not argparse_on_import
    assert codes == [0, 0]
    assert loaded == []
    assert pool
    assert missing == "module 'pwclock.cli' has no attribute 'NoSuchName'"


# The script entry: ``python -m pwclock.cli`` and the ``pwclock`` console script.
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_child(args, disable=(), **kwargs):
    """A fresh Python process on the pwclock this test imported, with a minimal environment.

    numpy's CPU feature mask is passed on, so the child runs the SIMD loops this process
    runs, less the dispatched targets named in ``disable``.
    """
    package_root = Path(pwclock.__file__).resolve().parent.parent
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(package_root),
           "OPENBLAS_NUM_THREADS": "1"}
    disabled = " ".join([os.environ.get("NPY_DISABLE_CPU_FEATURES", ""), *disable]).strip()
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    return subprocess.run(
        [sys.executable, "-B", *args],
        capture_output=True,
        text=True,
        stdin=subprocess.DEVNULL,
        env=env,
        **kwargs,
    )


# How far a cell of the default bundle may move between the host's SIMD loops and
# numpy's baseline ones. Measured with numpy 2.4.6 on an AVX-512 host, down to its
# X86_V2 baseline: at most 4.65e-15, in timemap.csv's rel_error_linear, and at most
# 8.9e-16 elsewhere; no cell exceeds 32 in magnitude, where 1e-14 is 5 ulps.
SIMD_TOLERANCE = 1e-14

_SIMD_RUN = """
import json, sys
from numpy._core import _multiarray_umath as umath
from pwclock import cli
print(json.dumps([t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]))
sys.exit(cli.main(["all", "--out", sys.argv[1]]))
"""


def test_bundle_agrees_across_simd_levels(tmp_path):
    # One child runs the bundle on the host's loops, the other with every dispatched
    # SIMD target this process enabled switched off. The byte contract holds per SIMD
    # level only (README), so last digits may differ; headers, row counts and values
    # within SIMD_TOLERANCE may not.
    from numpy._core import _multiarray_umath as umath

    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if not enabled:
        pytest.skip("numpy enables no dispatched SIMD target on this host")
    bundles = []
    for tag, disable, left in (("host", (), enabled), ("baseline", enabled, [])):
        proc = run_child(["-c", _SIMD_RUN, str(tmp_path / tag)], disable=disable)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == left
        bundles.append({name: read_csv(tmp_path / tag / f"{name}.csv") for name in EXPERIMENTS})
    for name in EXPERIMENTS:
        (header, rows), (baseline_header, baseline_rows) = bundles[0][name], bundles[1][name]
        assert header == baseline_header, name
        assert len(rows) == len(baseline_rows), name
        moves = np.abs(np.array(rows, dtype=float) - np.array(baseline_rows, dtype=float))
        assert moves.max() <= SIMD_TOLERANCE, (name, moves.max())


def test_large_grid_oracle_bytes_do_not_depend_on_blas_threads(tmp_path):
    # The byte contract holds at every BLAS thread count: at grid 16,384, where
    # a reading's band runs to thousands of grid points, children on one and
    # on two BLAS threads write the same oracle-check bytes.
    config = tmp_path / "readings.json"
    config.write_text(json.dumps({"options": {"num_readings": 256}}), encoding="utf-8")
    package_root = Path(pwclock.__file__).resolve().parent.parent
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(package_root),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "pwclock.cli", "oracle-check", "--grid", "16384",
             "--seed", "5", "--config", str(config), "--out", str(out)],
            capture_output=True, text=True, stdin=subprocess.DEVNULL, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        written.append((out / "oracle-check.csv").read_bytes())
    assert written[0] == written[1]


def test_script_writes_the_bytes_main_writes(tmp_path):
    # Dev mode turns on every warning and -W error makes each one fatal, so a
    # warning raised while the process shuts down would show on stderr.
    proc = run_child(["-X", "dev", "-W", "error", "-m", "pwclock.cli", "clock-profile",
                      "--out", str(tmp_path / "script")])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert main(["clock-profile", "--out", str(tmp_path / "main")]) == 0
    written = [(tmp_path / tag / "clock-profile.csv").read_bytes() for tag in ("script", "main")]
    assert written[0] == written[1]


def test_script_bad_value_exits_one_with_one_error_line(tmp_path):
    proc = run_child(["-m", "pwclock.cli", "clock-profile", "--grid", "nan",
                      "--out", str(tmp_path / "o")])
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert json.loads(line) == {"error": {
        "type": "ValidationError", "message": "--grid must be a finite number, got 'nan'"}}
    assert not (tmp_path / "o").exists()


def test_script_leaves_a_malformed_command_line_to_argparse():
    proc = run_child(["-m", "pwclock.cli", "clock-profile", "--bogus"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: pwclock")
    assert proc.stderr.splitlines()[-1] == "pwclock: error: unrecognized arguments: --bogus"


# Runs the module as ``python -m`` does, after ``SETUP``, and prints how it ended:
# "SystemExit <code>" only if the entry left through the normal exit.
_AS_MAIN = """
import atexit, io, os, runpy, sys, threading
{setup}
sys.argv = ["pwclock", "clock-profile", "--out", sys.argv[1]]
try:
    runpy.run_module("pwclock.cli", run_name="__main__")
except SystemExit as exc:
    print("SystemExit", exc.code, file=sys.__stdout__)
    raise
"""


def test_script_runs_the_atexit_handlers(tmp_path):
    setup = "atexit.register(print, 'handler ran')"
    proc = run_child(["-c", _AS_MAIN.format(setup=setup), str(tmp_path)])
    # The handler runs once, after the entry's normal exit.
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "SystemExit 0\nhandler ran\n", "")
    assert (tmp_path / "clock-profile.csv").is_file()


# Whatever watches the process, the entry exits the normal way. The tracer
# stands in for coverage and the profile hook for cProfile. The thread outlives
# the main thread's code: shutdown joins it once the main thread stops, so it
# finishes before the process ends.
OBSERVERS = {
    "tracer": "sys.settrace(lambda *args: None)",
    "profiler": "sys.setprofile(lambda *args: None)",
    "thread": "threading.Thread(target=lambda: (threading.main_thread().join(),"
              " print('thread done'))).start()",
    "inspect": "os.environ['PYTHONINSPECT'] = '1'",
}


@pytest.mark.parametrize("observer", OBSERVERS)
def test_script_exits_normally_where_teardown_could_be_seen(tmp_path, observer):
    proc = run_child(["-c", _AS_MAIN.format(setup=OBSERVERS[observer]), str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert "SystemExit 0" in proc.stdout.splitlines()
    assert ("thread done" in proc.stdout) == (observer == "thread")
    assert (tmp_path / "clock-profile.csv").is_file()


def test_script_exits_normally_when_a_flush_fails(tmp_path):
    setup = ("class Unflushable(io.StringIO):\n"
             "    def flush(self):\n"
             "        raise OSError('flush failed')\n"
             "sys.stdout = Unflushable()")
    proc = run_child(["-c", _AS_MAIN.format(setup=setup), str(tmp_path)])
    assert proc.stdout == "SystemExit 0\n"
    assert proc.returncode == 120, proc.stderr  # shutdown's own code for a failed flush
    assert "flush failed" in proc.stderr


def test_console_script_and_module_share_one_entry():
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["pwclock"]
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    [block] = [node for node in tree.body
               if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(node) for node in block.body] == ["script()"]
    assert target == "pwclock.cli:script"
