"""The package's public names are exactly what its modules declare."""

import importlib
import pkgutil
import types

import pwclock


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
    exported = {
        name: value
        for name, value in vars(pwclock).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == declared
