import json
import math

import numpy as np
import pytest

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
