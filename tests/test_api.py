"""The package's public names are exactly what its modules declare."""

import ast
import copy
import importlib
import inspect
import pkgutil
import re
import types
from pathlib import Path

import numpy as np

import pwclock
from pwclock import conditional
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
    assert len(names) == 24
    removed = {
        "StationaryDamping",
        "TimeMapResult",
        "PosteriorDensity",
        "HistoryState",
        "EvolutionComparisonTable",
        "width_damping_derivative",
        "check_abstract_time",
        "validate_clock_params",
        "validate_system_spec",
        "position_given_n",
    }
    assert not removed & set(names)


ERRORS = {"ValidationError", "NumericalError"}


def test_exported_exception_classes_are_exactly_two():
    classes = {
        name for name, value in exported_names().items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    assert classes == ERRORS


# Raises of other classes that stay: the CSV writer's own column checks.
# ``error`` is the factory ``_require`` is handed; each factory is checked
# where it is written, at the ``_require`` call.
INTERNAL_RAISES = {
    ("_csv", "_write_csv", "TypeError"),
    ("_csv", "_write_csv", "ValueError"),
    ("params", "_require", "error"),
}


SOURCES = sorted(Path(pwclock.__file__).parent.glob("*.py"))


def nodes(path):
    """(module, enclosing function, node) for every node of the module at ``path``; the
    function is None at module level."""
    module = path.stem

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        yield module, function, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return visit(ast.parse(path.read_text(encoding="utf-8")), None)


def called(node):
    """The name a call, or the expression a raise, is made through, such as ``sys.exit``."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else ast.unparse(node)


def raised_names(path):
    """(module, enclosing function, name) for each raise and each ``_require`` factory in
    the module at ``path``; a bare re-raise gives none."""
    found = []
    for module, function, node in nodes(path):
        if isinstance(node, ast.Raise) and node.exc is not None:
            found.append((module, function, called(node.exc)))
        if isinstance(node, ast.Call) and called(node) == "_require":
            factory = node.args[2]
            assert isinstance(factory, ast.Lambda), ast.unparse(node)
            found.append((module, function, called(factory.body)))
    return found


def test_every_raise_is_one_of_the_two_classes():
    found = [site for path in SOURCES for site in raised_names(path)]
    assert INTERNAL_RAISES <= set(found)
    stray = [site for site in found if site[2] not in ERRORS and site not in INTERNAL_RAISES]
    assert not stray


LIBRARY = ("params", "clock", "timemap", "conditional", "evolution")


def test_no_library_module_catches_a_pwclock_error():
    # An error is not a route: ideal_limit_concentration picks its inversion by
    # testing the reading. A handler naming ValidationError or NumericalError,
    # alone, in a tuple or through an attribute, counts.
    assert set(LIBRARY) <= {path.stem for path in SOURCES}
    caught = [
        (module, function, ast.unparse(node.type))
        for path in SOURCES if path.stem in LIBRARY
        for module, function, node in nodes(path)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and ERRORS & {getattr(name, "id", getattr(name, "attr", None)) for name in ast.walk(node.type)}
    ]
    assert caught == []


def test_only_the_script_entry_ends_the_process():
    # Library code and ``main`` return; the script entry alone leaves, by
    # ``sys.exit``. A call through any name ending in ``exit`` or ``_exit``
    # counts, aliases too.
    found = {
        (module, function, called(node))
        for path in SOURCES
        for module, function, node in nodes(path)
        if isinstance(node, ast.Call) and called(node).rpartition(".")[2] in ("exit", "_exit")
    }
    assert found == {("cli", "script", "sys.exit")}


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


def test_specs_and_histories_are_checked_only_when_made():
    calls = {
        name: {(module, function) for path in SOURCES for module, function, node in nodes(path)
               if isinstance(node, ast.Call) and called(node) == name}
        for name in ("validate_clock_params", "validate_system_spec", "check_abstract_time")
    }
    assert calls["validate_clock_params"] == {("params", "__post_init__")}
    assert calls["validate_system_spec"] == {("params", "__post_init__")}
    assert ("conditional", "__post_init__") in calls["check_abstract_time"]
    assert ("conditional", "conditional_system_probability") not in calls["check_abstract_time"]


def test_each_clock_rule_is_written_once():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(Path(pwclock.__file__).parent.glob("*.py"))
    }

    def owners(text):
        return [module for module, source in sources.items() for _ in range(source.count(text))]

    assert owners("np.exp(-params.damping * n / 2.0)") == ["clock"]
    for gone in ("rescaled_hamiltonian", "np.linalg.norm", "svd"):
        assert owners(gone) == [], gone
    # A clock is checked once, when it is made; no accessor re-checks a field where it is read.
    accessors = re.compile(r"\b_(scales|damping|n_reset|alpha)\(")
    assert [module for module, source in sources.items() if accessors.search(source)] == []
    for rule in (
        "hbar, mass, omega must be positive finite numbers",
        "n_reset must be a positive finite number",
        "damping must be a finite number >= 0",
        "under-damping requires r/2 < omega",
        "exceeds the running-time limit 1/r",
        "must be a finite number > 0 for the time-map inversion",
        "m*omega underflows to 0, got",
        "omega**2 overflows, got",
    ):
        assert owners(rule) == ["params"], rule
    # Under-damping has one owner: recommend_damping leaves it to the clock.
    assert owners("r/2 < omega") == ["params"]
    # Readings are checked where they enter; the bands never see a non-finite one.
    assert "isfinite" not in inspect.getsource(conditional._reading_bands)
