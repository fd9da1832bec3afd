"""Span recorder for the traced run.

The recorder wraps pwclock's public functions from outside the package: each
wrapped function is rebound in every ``pwclock`` module namespace that holds
it, so calls made through ``cli``'s, ``conditional``'s or ``timemap``'s own
imported references are recorded too. Spans stay in memory as
``[name, parent, start, end, thread, info]`` until ``drain`` turns them into
rows with parent indices; ``summarize`` derives self times and the per-layer
counters from those rows.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Wrapped names per pwclock module; None means every function in __all__.
LAYERS = {
    "params": ("validate_clock_params", "validate_system_spec", "check_abstract_time"),
    "clock": None,
    "timemap": None,
    "conditional": None,
    "evolution": None,
    "cli": ("resolve_config", "run", "sweep"),
}

EIGH = "numpy.linalg.eigh"


def _size(result) -> int:
    return int(np.size(result))


def _run_paths(result) -> list[str]:
    return [str(result.csv_path), str(result.meta_path)]


def _info_for(name: str):
    """What a span keeps of its function's result: array elements or output paths."""
    if name.startswith("clock.") or name == "conditional.coherent_overlap":
        return _size
    if name == "cli.run":
        return _run_paths
    return None


class Tracer:
    """Records spans of wrapped calls while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name: str, fn):
        spans = self.spans
        stack_of = self._stack
        now = time.perf_counter
        ident = threading.get_ident
        info = _info_for(name)

        def traced(*args, **kwargs):
            stack = stack_of()
            span = [name, stack[-1] if stack else None, now(), 0.0, ident(), None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = now()
                stack.pop()
                spans.append(span)
            if info is not None:
                span[5] = info(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _under(self, parent, fn, *args, **kwargs):
        """Run fn in a pool thread with the submitting span as its parent."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def _rebind(self, original, replacement) -> None:
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("pwclock"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"pwclock.{layer}")
            if names is None:
                names = [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]
            for fn_name in names:
                original = getattr(module, fn_name)
                self._rebind(original, self.wrap(f"{layer}.{fn_name}", original))

        self._undo.append((np.linalg, "eigh", np.linalg.eigh))
        np.linalg.eigh = self.wrap(EIGH, np.linalg.eigh)

        tracer = self
        cli = sys.modules["pwclock.cli"]

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                return super().submit(tracer._under, parent, fn, *args, **kwargs)

        self._undo.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
        cli.ThreadPoolExecutor = TracedPool

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def drain(self) -> list[list]:
        """Recorded spans as [name, parent_index, start, end, thread, info]; clears them."""
        spans = list(self.spans)
        self.spans.clear()
        index = {id(span): i for i, span in enumerate(spans)}
        return [
            [s[0], index.get(id(s[1])) if s[1] is not None else None, s[2], s[3], s[4], s[5]]
            for s in spans
        ]


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(rows: list[list]) -> tuple[dict[str, float], list[list[str]]]:
    """Per-layer statistics of one traced iteration, and the cli.run output paths.

    Self time is a span's duration minus the part of it its children cover.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in rows]
    for name, parent, start, end, _tid, _info in rows:
        if parent is not None:
            children[parent].append((start, end))

    def has_ancestor(i: int, test) -> bool:
        parent = rows[i][1]
        while parent is not None:
            if test(rows[parent][0]):
                return True
            parent = rows[parent][1]
        return False

    stats: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        stats[key] = stats.get(key, 0.0) + value

    overlap_points = root_evals = eigh_calls = clock_points = 0
    sweep_wall = swept_run_s = 0.0
    sweep_threads: set[int] = set()
    outputs: list[list[str]] = []
    for i, (name, _parent, start, end, tid, info) in enumerate(rows):
        total = end - start
        self_s = total - _covered(start, end, children[i])
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", self_s)
        add(f"{name}.total_s", total)
        layer = name.split(".", 1)[0]
        if layer == "clock":
            add("clock.calls", 1)
            add("clock.self_s", self_s)
            clock_points += info or 0
            if name == "clock.position_expectation" and has_ancestor(
                i, lambda n: n == "timemap.n_from_x_exact"
            ):
                root_evals += 1
        elif name == "conditional.coherent_overlap":
            overlap_points += info or 0
        elif name == EIGH and has_ancestor(i, lambda n: n.startswith("evolution.")):
            eigh_calls += 1
        elif name in ("params.validate_clock_params", "params.validate_system_spec"):
            add("params.validate.calls", 1)
            add("params.validate.self_s", self_s)
        elif name == "cli.sweep":
            sweep_wall += total
        elif name == "cli.run":
            if info is not None:  # None when run raised
                outputs.append(info)
            if has_ancestor(i, lambda n: n == "cli.sweep"):
                swept_run_s += total
                sweep_threads.add(tid)

    calls = stats.get("clock.calls", 0.0)
    stats.update(
        {
            "conditional.overlap_points": overlap_points,
            "timemap.root_evals": root_evals,
            "evolution.eigh_calls": eigh_calls,
            "clock.points": clock_points,
            "clock.points_per_call": clock_points / calls if calls else 0.0,
            "cli.sweep.wall_s": sweep_wall,
            "cli.sweep.workers": len(sweep_threads),
            "cli.sweep.parallelism": swept_run_s / sweep_wall if sweep_wall else 0.0,
        }
    )
    return stats, outputs


def exponent(full: dict, quarter: dict, name: str) -> float:
    """Scaling exponent of a function's time per call from size N/4 to N.

    0 when the function is not called at both sizes.
    """
    calls_full = full.get(f"{name}.calls", 0)
    calls_quarter = quarter.get(f"{name}.calls", 0)
    if not calls_full or not calls_quarter:
        return 0.0
    per_call_full = full[f"{name}.total_s"] / calls_full
    per_call_quarter = quarter[f"{name}.total_s"] / calls_quarter
    return math.log(per_call_full / per_call_quarter) / math.log(4.0)
