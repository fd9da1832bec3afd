"""The package's public names are exactly what its modules declare."""

import copy
import importlib
import pkgutil
import types

import numpy as np

import pwclock
from pwclock import (
    ClockParams,
    build_history_state,
    compare_evolutions,
    damping_stationary_point,
    default_qubit_spec,
    invert_position,
    position_expectation,
    posterior_over_n,
)


def exported_names():
    return {
        name: value
        for name, value in vars(pwclock).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_package_exports_exactly_what_module_all_declares():
    declared, owner = {}, {}
    for info in pkgutil.iter_modules(pwclock.__path__):
        module = importlib.import_module(f"pwclock.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"stale entry {name!r} in {module.__name__}.__all__"
            # Under star re-exports the later module would silently win.
            assert name not in owner, f"{name!r} is in both {owner[name]} and {module.__name__}"
            owner[name] = module.__name__
            declared[name] = getattr(module, name)
    assert exported_names() == declared


def test_result_records_are_returned_not_exported():
    names = exported_names()
    assert len(names) == 46
    removed = {
        "StationaryDamping",
        "TimeMapResult",
        "PosteriorDensity",
        "HistoryState",
        "EvolutionComparisonTable",
        "width_damping_derivative",
    }
    assert not removed & set(names)


def test_records_of_arrays_compare_and_hash_by_identity():
    spec = default_qubit_spec()
    params = ClockParams(damping=0.5, n_reset=1.5)
    records = [
        spec,
        posterior_over_n(position_expectation(0.75, params), params, 16),
        build_history_state(spec, params, 16),
        compare_evolutions(spec, params, 4),
    ]
    for record in records:
        twin = copy.copy(record)
        assert record == record
        assert (record == twin) is False
        assert {record: 1}[record] == 1


def test_records_of_scalars_keep_value_equality():
    params = ClockParams(damping=0.5, n_reset=1.5)
    point = damping_stationary_point(1.0, params)
    assert point == damping_stationary_point(1.0, params)
    assert hash(point) == hash(damping_stationary_point(1.0, params))
    x = position_expectation(0.5, params)
    assert invert_position(x, params) == invert_position(x, params)
    assert invert_position(x, params) != invert_position(np.nextafter(x, 0.0), params)
