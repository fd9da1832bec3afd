"""The package's public names are exactly what its modules declare."""

import ast
import copy
import importlib
import inspect
import pkgutil
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
    assert len(names) == 29
    removed = {
        "StationaryDamping",
        "TimeMapResult",
        "PosteriorDensity",
        "HistoryState",
        "EvolutionComparisonTable",
        "width_damping_derivative",
    }
    assert not removed & set(names)


ERRORS = {"ValidationError", "NumericalError", "OutOfRange"}


def test_exported_exception_classes_are_exactly_three():
    classes = {
        name for name, value in exported_names().items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    assert classes == ERRORS
    assert issubclass(pwclock.OutOfRange, pwclock.ValidationError)


# Raises of other classes that stay: the CSV writer's own column checks, and
# the module attribute lookup, where Python expects AttributeError. ``error``
# is the factory ``_require`` is handed; each factory is checked where it is
# written, at the ``_require`` call.
INTERNAL_RAISES = {
    ("_csv", "_write_csv", "TypeError"),
    ("_csv", "_write_csv", "ValueError"),
    ("cli", "__getattr__", "AttributeError"),
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


def test_every_raise_is_one_of_the_three_classes():
    found = [site for path in SOURCES for site in raised_names(path)]
    assert INTERNAL_RAISES <= set(found)
    stray = [site for site in found if site[2] not in ERRORS and site not in INTERNAL_RAISES]
    assert not stray


def test_only_the_script_entry_ends_the_process():
    # Library code and ``main`` return; the script entry alone leaves, by
    # ``os._exit`` or, where teardown could be seen, by ``sys.exit``. A call
    # through any name ending in ``exit`` or ``_exit`` counts, aliases too.
    found = {
        (module, function, called(node))
        for path in SOURCES
        for module, function, node in nodes(path)
        if isinstance(node, ast.Call) and called(node).rpartition(".")[2] in ("exit", "_exit")
    }
    assert found == {("cli", "script", "os._exit"), ("cli", "script", "sys.exit")}


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


def test_each_clock_rule_is_written_once():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(Path(pwclock.__file__).parent.glob("*.py"))
    }

    def owners(text):
        return [module for module, source in sources.items() for _ in range(source.count(text))]

    assert owners("np.exp(-params._damping() * n / 2.0)") == ["clock"]
    for gone in ("rescaled_hamiltonian", "np.linalg.norm", "svd"):
        assert owners(gone) == [], gone
    assert owners("hbar, mass, omega must be positive finite numbers") == ["params"]
    assert owners("damping must be a finite number >= 0") == ["params"]
    assert owners("alpha and phase must be finite") == ["params"]
    # Every read of r in the library goes through the rule's owner.
    assert owners("params.damping") == []
    assert owners("under-damping requires r/2 < omega") == ["params"]
    assert owners("n_reset must be a positive finite number") == ["params"]
    # Every read of n_reset in the library goes through the rule's owner.
    library = ("params", "clock", "timemap", "conditional", "evolution")
    reads = [module for module in library for _ in range(sources[module].count(".n_reset"))]
    assert reads == ["params"] * inspect.getsource(ClockParams._n_reset).count(".n_reset")
    # Readings are checked where they enter; the bands never see a non-finite one.
    assert "isfinite" not in inspect.getsource(conditional._reading_bands)
