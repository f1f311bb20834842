"""Public names: every ``__all__`` entry exists, and the package exports only public names."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

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


# the names the benchmark reads from the modules that held them before they
# moved to elastoplasmon.fields, by former module
SERVED = {"lame": ("lame_residual", "traction_coeffs", "traction_coeffs_algebraic"),
          "transmission": ("kernel_basis", "residual_check"),
          "energy": ("functional_I", "functional_J"),
          "scenarios": ("witness_fixed_c", "witness_nocore", "witness_core_resonant", "witness_radial_nonresonant")}


def test_moved_names_are_the_fields_objects():
    # each served name is the object of its new home and not public where it
    # is served; the hook serves nothing else, moved or not
    from elastoplasmon import fields

    for module, names in SERVED.items():
        mod = importlib.import_module(f"elastoplasmon.{module}")
        for name in names:
            assert getattr(mod, name) is getattr(fields, name), (module, name)
            assert name not in mod.__all__, (module, name)
        for name in ("Term", "no_such_name"):
            with pytest.raises(AttributeError, match=f"module 'elastoplasmon.{module}' has no attribute '{name}'"):
                getattr(mod, name)


def test_from_import_of_a_moved_name_loads_fields():
    # in a fresh process, before anything has loaded elastoplasmon.fields
    code = ("import sys\n"
            "from elastoplasmon.lame import lame_residual\n"
            "from elastoplasmon.transmission import kernel_basis\n"
            "from elastoplasmon import fields\n"
            "print(lame_residual is fields.lame_residual, kernel_basis is fields.kernel_basis)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=src))
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["True", "True"]
