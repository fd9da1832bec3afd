"""The benchmark's workloads: inputs from a seed, one iteration, output checks.

``oracle`` and ``tables`` run through the public API in this process;
``cli`` starts fresh ``python -m pwclock.cli`` processes. An operation is one
experiment run (in process) or one process (cli); it fails when it raises,
exits nonzero, or writes output that fails the workload's check.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import HERE, ROOT, child_env
from tracing import Tracer

# Acceptance tolerances the checks use.
ORACLE_MAX_ABS_ERR = 1e-3  # criterion 8
COMPLEMENT_RESIDUAL = 1e-12  # criterion 8
ROUND_TRIP = 1e-10  # criterion 4
WORST_ROW_FIDELITY = 0.018  # default evolve-compare config
POSTERIOR_MASS = 1e-9

PROCESS_TIMEOUT_S = 120


def _nothing() -> None:
    pass


@dataclass
class Op:
    """One operation of an iteration and what it wrote."""

    name: str
    ok: bool
    error: str = ""
    csvs: list[Path] = field(default_factory=list)
    seconds: float = 0.0


@dataclass
class Outcome:
    """Checked outputs of one iteration."""

    failures: list[str]
    max_abs_err: float
    rows: int
    digests: dict[str, str]


def _read_csv(path: Path) -> dict[str, list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:]]
    return {name: [row[j] for row in cells] for j, name in enumerate(header)}


def _column(table: dict, name: str) -> np.ndarray:
    return np.array(table[name], dtype=float)


def check_csv(csv: Path) -> tuple[list[str], float | None]:
    """Check one experiment's CSV against its sidecar and independent references.

    Returns the failures and, for oracle-check and timemap, the worst
    absolute error against the reference.
    """
    meta = json.loads(csv.with_suffix(".meta.json").read_text(encoding="utf-8"))
    cfg = meta["config"]
    experiment = meta["experiment"]
    table = _read_csv(csv)
    rows = len(next(iter(table.values())))
    if experiment == "ideal-limit":
        expected = len(cfg["options"]["scales"])
    elif experiment == "oracle-check":
        expected = int(cfg["options"]["num_readings"])
    else:
        expected = int(cfg["grid_size"])
    if rows != expected:
        return [f"{csv.name}: {rows} rows, expected {expected}"], None
    err = None
    failures = []
    if experiment == "oracle-check":
        # Demo qubit H = diag(1/2, -1/2), psi0 = probe = (1, 1)/sqrt(2):
        # p_a(n) = cos^2(n/2) and p_b(n) = sin^2(n/2).
        n = _column(table, "n")
        p_a, p_b = _column(table, "p_cond_a"), _column(table, "p_cond_b")
        err = float(max(np.max(np.abs(p_a - np.cos(n / 2) ** 2)),
                        np.max(np.abs(p_b - np.sin(n / 2) ** 2))))
        residual = float(np.max(np.abs(p_a + p_b - 1.0)))
        if not err <= ORACLE_MAX_ABS_ERR:  # NaN fails too
            failures.append(f"{csv.name}: max |p_cond - p_exact| {err:.3e} > {ORACLE_MAX_ABS_ERR}")
        if not residual <= COMPLEMENT_RESIDUAL:
            failures.append(f"{csv.name}: complement residual {residual:.3e} > {COMPLEMENT_RESIDUAL}")
    elif experiment == "timemap":
        grid = int(cfg["grid_size"])
        n = np.arange(grid) * (cfg["clock"]["n_reset"] / grid)
        err = float(np.max(np.abs(_column(table, "n_exact") - n)))
        if not err <= ROUND_TRIP:
            failures.append(f"{csv.name}: round trip |n_exact - n| {err:.3e} > {ROUND_TRIP}")
    elif experiment == "evolve-compare":
        worst = float(np.min(_column(table, "fidelity")))
        if not worst >= WORST_ROW_FIDELITY:
            failures.append(f"{csv.name}: worst row fidelity {worst} < {WORST_ROW_FIDELITY}")
    elif experiment == "posterior":
        mass = float(np.trapezoid(_column(table, "density"), _column(table, "n_prime")))
        if not abs(mass - 1.0) <= POSTERIOR_MASS:
            failures.append(f"{csv.name}: posterior mass {mass!r} not within {POSTERIOR_MASS} of 1")
    return failures, err


class Workload:
    """Base: subclasses set ``runs`` or override ``iterate``."""

    name = ""
    in_process = True
    # The CSV whose worst error against its reference is the workload's max_abs_err.
    error_csv = "oracle-check.csv"
    # Reported errors below this are raised to it, so that float noise far
    # inside the check's tolerance does not read as an accuracy change.
    error_floor = 0.0
    # Reference parts (reference.PARTS) whose speed moves with this
    # workload's. Large-array passes dominate the history-state build, so
    # they alone gauge `oracle` and `cli`: the Python-level parts slow down
    # about twice as much as those workloads do when the machine slows.
    gauge_parts: tuple[str, ...] = ("numpy_large",)

    def __init__(self, seed: int, work: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.work = work
        self.tiny = tiny

    def setup_configs(self) -> list[list]:
        """(experiment, config document, grid) triples a fresh process resolves."""
        return [[exp, doc, grid] for exp, doc, grid in self.runs(quarter=False)]

    def runs(self, quarter: bool) -> list[tuple[str, dict, int | None]]:
        raise NotImplementedError

    def iterate(self, traced: bool = False, quarter: bool = False,
                between=_nothing) -> tuple[list[Op], list]:
        """One iteration; returns its operations and, when traced, its span rows.

        ``between`` is called before the first operation and after each one,
        outside the operations' timings.
        """
        from pwclock import cli

        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        ops = []
        try:
            between()
            for exp, doc, grid in self.runs(quarter):
                start = time.perf_counter()
                try:
                    cfg = cli.resolve_config(exp, doc, str(self.work), grid, self.seed)
                    result = cli.run(cfg)
                except Exception as exc:  # counted as a failed operation
                    op = Op(exp, False, f"{type(exc).__name__}: {exc}")
                else:
                    op = Op(exp, True, csvs=[result.csv_path])
                op.seconds = time.perf_counter() - start
                ops.append(op)
                between()
        finally:
            if tracer is not None:
                tracer.uninstall()
        return ops, tracer.drain() if tracer is not None else []

    def check(self, ops: list[Op]) -> Outcome:
        """Digest and check every CSV; mark operations whose outputs fail."""
        failures = []
        errors: dict[str, float] = {}
        rows = 0
        digests = {}
        for op in ops:
            for csv in op.csvs:
                key = str(csv.relative_to(self.work))
                data = csv.read_bytes()
                digests[key] = hashlib.sha256(data).hexdigest()
                rows += data.count(b"\n") - 1
                try:
                    bad, err = check_csv(csv)
                except (OSError, ValueError, IndexError, KeyError) as exc:
                    bad, err = [f"{key}: unreadable output ({type(exc).__name__}: {exc})"], None
                if bad:
                    op.ok = False
                    failures.extend(bad)
                if err is not None:
                    errors[key] = err
        errs = [e for key, e in errors.items() if Path(key).name == self.error_csv]
        err = max(max(errs), self.error_floor) if errs else float("nan")
        return Outcome(failures, err, rows, digests)


class Oracle(Workload):
    name = "oracle"

    def runs(self, quarter):
        grid, readings = (2048, 8) if self.tiny else (8192, 256)
        doc = {"options": {"num_readings": readings}}
        return [("oracle-check", doc, grid // 4 if quarter else grid)]


class Tables(Workload):
    name = "tables"
    error_csv = "timemap.csv"
    # Row loops, small numpy calls, small eigh and row-sized arrays: every part.
    gauge_parts = ("python", "numpy_small", "eigh", "numpy_large")
    # The round trip is exact up to a few ulp (about 5e-13); report it
    # floored at a tenth of its tolerance.
    error_floor = ROUND_TRIP / 10
    EXPERIMENTS = ("clock-profile", "damping-opt", "timemap", "evolve-compare", "posterior",
                   "ideal-limit")

    def __init__(self, seed, work, tiny=False):
        super().__init__(seed, work, tiny)
        from pwclock import cli, position_expectation

        # Seeded posterior reading x = <x>(n), n inside the running window.
        clock = cli.resolve_config("posterior").clock
        n = np.random.default_rng(seed).uniform(0.1, 0.9) * clock.n_reset
        self.x = float(position_expectation(n, clock))

    def runs(self, quarter):
        grid = 64 if self.tiny else 8192
        if quarter:
            grid //= 4
        return [
            (exp, {"options": {"x": self.x}} if exp == "posterior" else {}, grid)
            for exp in self.EXPERIMENTS
        ]


class Cli(Workload):
    name = "cli"
    in_process = False
    R_WINDOW = (0.1, 0.65)
    SWEEP_VALUES = 4

    def __init__(self, seed, work, tiny=False):
        super().__init__(seed, work, tiny)
        from pwclock import cli

        # Seeded damping values inside the valid window r <= 1/n_reset of
        # oracle-check. The window starts at the default r = 0.1: smaller r
        # gives a larger oracle error, which would make max_abs_err depend
        # on the seed.
        rng = np.random.default_rng(seed)
        r_values = sorted(float(v) for v in rng.uniform(*self.R_WINDOW, self.SWEEP_VALUES))
        sweep = ["oracle-check", "--sweep", "r=" + ",".join(repr(r) for r in r_values)]
        all_out, sweep_out = ["--out", str(work / "all")], ["--out", str(work / "sweep")]
        self.argvs = {False: [["all"] + all_out, sweep + sweep_out]}
        # At N/4 each experiment runs alone at a quarter of its default grid.
        self.argvs[True] = [
            [exp, "--grid", str(max(16, cli.resolve_config(exp).grid_size // 4))] + all_out
            for exp in cli.EXPERIMENTS
        ] + [sweep + ["--grid", str(cli.resolve_config("oracle-check").grid_size // 4)]
             + sweep_out]

    def setup_configs(self):
        from pwclock import cli

        return [[exp, {}, None] for exp in cli.EXPERIMENTS]

    def iterate(self, traced=False, quarter=False, between=_nothing):
        argvs = self.argvs[quarter]
        if not traced:
            commands = [(argv[0], [sys.executable, "-m", "pwclock.cli"] + argv) for argv in argvs]
        elif quarter:
            commands = [("quarter", self._traced_command(argvs, "quarter"))]
        else:
            commands = [(argv[0], self._traced_command([argv], argv[0])) for argv in argvs]
        # Fresh output directories, so every check sees only this iteration's files.
        for out in ("all", "sweep"):
            shutil.rmtree(self.work / out, ignore_errors=True)
        ops, spans = [], []
        between()
        for name, command in commands:
            start = time.perf_counter()
            try:
                proc = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True,
                                      text=True, timeout=PROCESS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                ops.append(Op(name, False, f"no exit within {PROCESS_TIMEOUT_S} s",
                              seconds=time.perf_counter() - start))
                between()
                continue
            ok = proc.returncode == 0
            ops.append(Op(name, ok, "" if ok else
                          f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}",
                          seconds=time.perf_counter() - start))
            between()
            if traced:
                spans_path = Path(command[2])
                if spans_path.is_file():
                    spans.extend(_offset(json.loads(spans_path.read_text()), len(spans)))
                    spans_path.unlink()
        if not quarter:
            self._attach_outputs(ops)
        return ops, spans

    def _traced_command(self, argvs: list[list[str]], tag: str) -> list[str]:
        spans_path = self.work / f"spans-{tag}.json"
        return [sys.executable, str(HERE / "trace_child.py"), str(spans_path), json.dumps(argvs)]

    def _attach_outputs(self, ops: list[Op]) -> None:
        """Give each process its CSVs; `all` must write one per experiment and
        the sweep needs every index entry ok."""
        from pwclock import cli

        all_op, sweep_op = ops
        all_op.csvs = sorted((self.work / "all").glob("*.csv"))
        names = {csv.name for csv in all_op.csvs}
        expected = {f"{exp}.csv" for exp in cli.EXPERIMENTS}
        if names != expected and all_op.ok:
            all_op.ok = False
            all_op.error = (f"all wrote {sorted(names)}, missing {sorted(expected - names)}, "
                            f"unexpected {sorted(names - expected)}")
        index_path = self.work / "sweep" / "sweep_index.json"
        if not sweep_op.ok or not index_path.is_file():
            sweep_op.ok = False
            return
        entries = json.loads(index_path.read_text(encoding="utf-8"))["runs"]
        bad = [e for e in entries if e.get("status") != "ok"]
        if bad or len(entries) != self.SWEEP_VALUES:
            sweep_op.ok = False
            sweep_op.error = f"sweep index: {len(entries)} entries, {len(bad)} not ok"
        sweep_op.csvs = [Path(e["csv"]) for e in entries if e.get("status") == "ok"]


def _offset(rows: list[list], base: int) -> list[list]:
    """Span rows of one process, with parent indices shifted past earlier rows."""
    return [[r[0], None if r[1] is None else r[1] + base] + r[2:] for r in rows]


WORKLOADS = {cls.name: cls for cls in (Oracle, Tables, Cli)}
