import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pwclock import NoValues, ValidationError
from pwclock.cli import (
    EXPERIMENTS,
    SCHEMA_VERSION,
    main,
    resolve_config,
    run,
    sweep,
)


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
    with pytest.raises(NoValues):
        sweep(cfg, "r", [])


def test_empty_sweep_flag_exits_one(tmp_path, capsys):
    assert main(["clock-profile", "--out", str(tmp_path / "o"), "--sweep", "r="]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "NoValues"


@pytest.mark.parametrize("values", ["nan", "0.5,nan", "inf"])
def test_non_finite_sweep_flag_exits_one(tmp_path, capsys, values):
    out = tmp_path / "o"
    assert main(["timemap", "--out", str(out), "--sweep", f"r={values}"]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValidationError"
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


def test_sweep_records_per_value_failures(tmp_path):
    cfg = resolve_config("clock-profile", None, out=str(tmp_path / "sw"))
    entries = sweep(cfg, "r", [0.1, 5.0])  # 5.0 is over-damped
    assert entries[0]["status"] == "ok"
    assert entries[1]["status"] == "error"
    assert entries[1]["error"]["type"] == "OverDamped"
    assert (tmp_path / "sw" / "sweep_index.json").exists()


def test_invalid_config_exits_one(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"clock": {"damping": 5.0}})
    assert main(["clock-profile", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "OverDamped"


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
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "DegenerateSupport"
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


def test_cli_overrides_beat_config(tmp_path):
    doc = {"grid_size": 64, "seed": 5}
    cfg = resolve_config("clock-profile", doc, grid=128, seed=9)
    assert cfg.grid_size == 128
    assert cfg.seed == 9


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
