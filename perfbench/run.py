"""pwclock benchmark: one workload, end to end or per layer.

Usage:
    python3 perfbench/run.py --workload {oracle,tables,cli} --seed N \
        --seconds S --trace {0,1} [--tiny]

``--trace 0`` measures the end-to-end metrics with tracing off; their timings
are in reference seconds, wall seconds scaled by the machine's speed as
gauged next to every operation (reference.py). ``--trace 1``
alternates untraced iterations, traced iterations at the workload's size N and
traced iterations at N/4, and reports the per-layer metrics, the scaling
exponents and the tracing overhead. ``--tiny`` shrinks the grids for the smoke
test. Every iteration's outputs are checked; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics, and
the full report (sample counts, environment, CSV digests, spans) is written
under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import common
import reference
import tracing
from common import HERE, OUT, ROOT, child_env, median, tail
from workloads import WORKLOADS

# Timings are in reference seconds: wall seconds scaled by the machine's
# speed, gauged next to each operation (see reference.py).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_s_tail": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "max_abs_err": "1",
}

# Printed and kept in result.json, but not in the result line: raw wall-clock
# timings drift with the load other tenants put on a shared machine (on
# `tables` the quartile spread of ten runs' median reached 0.30),
# and fail_frac is 0 when nothing fails, so it has no share to bound.
REPORTED = {
    "raw_setup_s": "s",
    "raw_wall_s": "s",
    "reference_s": "s",
    "fail_frac": "1",
}

# Functions whose time per call is fitted from size N/4 to N.
EXPONENTS = (
    "conditional.build_history_state",
    "conditional.conditional_system_probability",
    "timemap.linearization_report",
    "evolution.compare_evolutions",
)

PER_LAYER = {
    "conditional.overlap_points": "count",
    "conditional.build_history_state.calls": "count",
    "conditional.build_history_state.self_s": "s",
    "conditional.build_history_state.total_s": "s",
    "conditional.conditional_system_probability.calls": "count",
    "conditional.conditional_system_probability.self_s": "s",
    "conditional.posterior_over_n.self_s": "s",
    "timemap.n_from_x_exact.calls": "count",
    "timemap.n_from_x_exact.self_s": "s",
    "timemap.root_evals": "count",
    "timemap.linearization_report.self_s": "s",
    "evolution.eigh_calls": "count",
    "evolution.evolve_exact.calls": "count",
    "evolution.compare_evolutions.self_s": "s",
    "evolution.evolve_exact_many.self_s": "s",
    "clock.calls": "count",
    "clock.points": "count",
    "clock.points_per_call": "count",
    "clock.self_s": "s",
    "params.validate.calls": "count",
    "params.validate.self_s": "s",
    "cli.run.self_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "B",
    "cli.resolve_config.self_s": "s",
    "cli.sweep.wall_s": "s",
    "cli.sweep.workers": "count",
    "cli.sweep.parallelism": "1",
    **{f"{name}.exponent": "1" for name in EXPONENTS},
    "trace.overhead_frac": "1",
}

SETUP_PROBES = 9

# A fresh interpreter importing pwclock and resolving the workload's configs.
PROBE = (
    "import json, sys\n"
    "import pwclock.cli as cli\n"
    "for exp, doc, grid in json.loads(sys.argv[1]):\n"
    "    cli.resolve_config(exp, doc, None, grid)\n"
    "print('ready', flush=True)\n"
)


class Tally:
    """Operations attempted and failed, and the CSV digests seen, over a run."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] | None = None
        self.digest_drift: list[str] = []
        self.errors: list[float] = []
        self.rows = 0

    def count(self, ops) -> None:
        self.attempted += len(ops)
        self.failed += sum(not op.ok for op in ops)
        self.failures.extend(f"{op.name}: {op.error}" for op in ops if not op.ok and op.error)

    @property
    def max_abs_err(self) -> float:
        """Worst error over the checked iterations.

        1.0, the largest error a probability can have, when no output could
        be checked; those iterations have already been counted as failed.
        """
        finite = [e for e in self.errors if math.isfinite(e)]
        return max(finite) if finite else 1.0

    def check(self, ops) -> None:
        """Check one full-size iteration's outputs and count its operations."""
        outcome = self.workload.check(ops)
        self.count(ops)
        self.failures.extend(outcome.failures)
        self.errors.append(outcome.max_abs_err)
        if self.digests is None:
            self.digests = outcome.digests
            self.rows = outcome.rows
        else:
            self.digest_drift.extend(
                name for name, d in outcome.digests.items() if self.digests.get(name) != d
            )


class SetupProbe:
    """Seconds from process start to resolved configs, in fresh interpreters.

    Probes are spread over the run so that their median samples the whole
    run rather than one moment of a shared machine. The first probe fills
    the bytecode cache and is discarded. Each probe is gauged like an
    operation: ``times`` holds wall seconds, ``scaled`` reference seconds.
    """

    def __init__(self, workload, seconds: float) -> None:
        self.configs = json.dumps(workload.setup_configs())
        # Start-up is Python-level work, gauged by every part.
        self.gauge = reference.Gauge()
        self.interval = seconds / SETUP_PROBES
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.last = time.perf_counter()
        self._probe()

    def _gauged(self) -> None:
        before = self.gauge.seconds()
        elapsed = self._probe()
        self.times.append(elapsed)
        self.scaled.append(self.gauge.scale(elapsed, before, self.gauge.seconds()))

    def _probe(self) -> float:
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", PROBE, self.configs],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        return elapsed

    def maybe(self) -> None:
        """Probe if an interval has passed since the last probe."""
        if time.perf_counter() - self.last >= self.interval:
            self._gauged()
            self.last = time.perf_counter()

    def finish(self) -> None:
        while len(self.times) < SETUP_PROBES:
            self._gauged()


def timed(workload, **kwargs):
    start = time.perf_counter()
    ops, spans = workload.iterate(**kwargs)
    return time.perf_counter() - start, ops, spans


def gauged(workload, gauge):
    """One iteration with the gauge timed before and after each operation.

    Returns its wall seconds (the operations only), its reference seconds,
    the gauge's timings and the operations.
    """
    refs: list[float] = []
    ops, _ = workload.iterate(between=lambda: refs.append(gauge.seconds()))
    wall = sum(op.seconds for op in ops)
    scaled = sum(gauge.scale(op.seconds, refs[i], refs[i + 1]) for i, op in enumerate(ops))
    return wall, scaled, refs, ops


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    _, ops, _ = timed(workload)  # warm-up
    tally.check(ops)
    # Iterations repeat the same work, so the warm-up reaches the workload's
    # peak; taken now, the peak leaves out the reference's buffers.
    peak_rss = peak_rss_mb(workload)
    probe = SetupProbe(workload, seconds)
    gauge = reference.Gauge(workload.gauge_parts)
    walls, scaled, refs = [], [], []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < seconds:
        wall, wall_ref, iteration_refs, ops = gauged(workload, gauge)
        walls.append(wall)
        scaled.append(wall_ref)
        refs.extend(iteration_refs)
        tally.check(ops)
        probe.maybe()
    probe.finish()
    wall_s = median(scaled)
    tail_s, tail_rank = tail(scaled)
    values = {
        "setup_s": (median(probe.scaled), len(probe.scaled)),
        "wall_s": (wall_s, len(scaled)),
        "wall_s_tail": (tail_s, len(scaled)),
        "rows_per_s": (tally.rows / wall_s, len(scaled)),
        "peak_rss_mb": (peak_rss, 1),
        "max_abs_err": (tally.max_abs_err, len(tally.errors)),
        "raw_setup_s": (median(probe.times), len(probe.times)),
        "raw_wall_s": (median(walls), len(walls)),
        "reference_s": (median(refs), len(refs)),
        "fail_frac": (tally.failed / tally.attempted, tally.attempted),
    }
    extra = {
        "setup_samples_s": probe.times,
        "setup_samples_reference_s": probe.scaled,
        "wall_samples_s": walls,
        "wall_samples_reference_s": scaled,
        "reference_samples_s": refs,
        "wall_s_tail_percentile": tail_rank,
        "rows_per_iteration": tally.rows,
    }
    return values, extra


def written(outputs) -> tuple[int, int]:
    """CSV rows and CSV plus sidecar bytes of the files cli.run wrote."""
    rows = size = 0
    for csv, meta in outputs:
        with open(csv, "rb") as fh:
            data = fh.read()
        rows += data.count(b"\n") - 1
        size += len(data) + Path(meta).stat().st_size
    return rows, size


def per_layer(workload, seconds: float, tally: Tally, spans_out) -> tuple[dict, dict]:
    _, ops, _ = timed(workload)  # warm-up
    tally.check(ops)
    untraced, traced, full, quarter = [], [], [], []
    begin = time.perf_counter()
    while not traced or time.perf_counter() - begin < seconds:
        wall, ops, _ = timed(workload)
        untraced.append(wall)
        tally.check(ops)

        wall, ops, spans = timed(workload, traced=True)
        traced.append(wall)
        stats, outputs = tracing.summarize(spans)
        stats["cli.rows_written"], stats["cli.bytes_written"] = written(outputs)
        tally.check(ops)
        full.append(stats)
        last_spans = spans

        _, ops, spans = timed(workload, traced=True, quarter=True)
        tally.count(ops)
        quarter.append(tracing.summarize(spans)[0])

    def med(stats_list, name):
        return median([s.get(name, 0.0) for s in stats_list])

    keys = set().union(*full, *quarter)
    full_med = {k: med(full, k) for k in keys}
    quarter_med = {k: med(quarter, k) for k in keys}
    values = {}
    for name in PER_LAYER:
        if name.endswith(".exponent"):
            value = tracing.exponent(full_med, quarter_med, name[: -len(".exponent")])
        elif name == "trace.overhead_frac":
            value = median(traced) / median(untraced) - 1.0
        else:
            value = full_med.get(name, 0.0)
        values[name] = (value, len(full))
    with gzip.open(spans_out, "wt", encoding="utf-8") as fh:
        json.dump({"columns": ["name", "parent", "start", "end", "thread", "info"],
                   "spans": last_spans}, fh)
    extra = {
        "untraced_wall_samples_s": untraced,
        "traced_wall_samples_s": traced,
        "layer_stats_full": full_med,
        "layer_stats_quarter": quarter_med,
        "spans_file": str(spans_out.relative_to(ROOT)),
    }
    return values, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny grids for the smoke test")
    args = parser.parse_args(argv)

    common.require_source()
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "work").mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, run_dir / "work", args.tiny)
    tally = Tally(workload)

    if args.trace:
        values, extra = per_layer(workload, args.seconds, tally, run_dir / "spans.json.gz")
        units = PER_LAYER
    else:
        values, extra = end_to_end(workload, args.seconds, tally)
        units = {**END_TO_END, **REPORTED}

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = {} if args.tiny else json.loads(
        (HERE / "digests.json").read_text(encoding="utf-8")).get(workload.name, {})
    report = {
        "workload": workload.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": common.environment(),
        "metrics": {
            name: {"value": value, "unit": units[name], "samples": samples}
            for name, (value, samples) in values.items()
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures[:20],
        "csv_sha256": tally.digests,
        "digest_drift_within_run": sorted(set(tally.digest_drift)),
        "digest_changes_vs_reference": sorted(
            name for name, digest in reference.items() if tally.digests.get(name) != digest
        ),
        **extra,
    }
    common.write_json(run_dir / "result.json", report)

    for name, metric in report["metrics"].items():
        print(f"{workload.name} {name} = {metric['value']!r} {metric['unit']} "
              f"(n={metric['samples']})")
    for failure in report["failures"]:
        print(f"{workload.name} FAILED {failure}")
    if report["digest_changes_vs_reference"]:
        print(f"{workload.name} CSV digests changed: {report['digest_changes_vs_reference']}")
    print(f"{workload.name} report: {(run_dir / 'result.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in values.items() if name not in REPORTED},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
