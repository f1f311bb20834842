"""Public names: every ``__all__`` entry exists, and the package exports only public names."""

import importlib
import pkgutil

import elastoplasmon

MODULES = sorted(m.name for m in pkgutil.iter_modules(elastoplasmon.__path__))


def test_every_all_entry_resolves():
    for name in MODULES:
        mod = importlib.import_module(f"elastoplasmon.{name}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, (name, missing)


def test_package_imports_only_names_in_all():
    # the lazy export map: each name is public in the module that defines it,
    # and the package __all__ is exactly the map's names
    exports = elastoplasmon._EXPORTS
    assert elastoplasmon.__all__ == list(exports)
    for name, module in exports.items():
        assert module in MODULES, (name, module)
        mod = importlib.import_module(f"elastoplasmon.{module}")
        assert name in mod.__all__, (module, name)
        value = getattr(elastoplasmon, name)
        assert value is getattr(mod, name) and value.__module__ == mod.__name__, (module, name)


def test_star_import_and_dir_list_every_export():
    namespace: dict = {}
    exec("from elastoplasmon import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(elastoplasmon.__all__)
    assert set(elastoplasmon.__all__) <= set(dir(elastoplasmon))
