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


def test_value_records_keep_repr_equality_and_hash():
    # the seven value records of a sweep are named tuples: each keeps the
    # repr its dataclass wrote, equality by value, and where every field is
    # hashable the hash of the tuple of its fields, as a frozen dataclass
    # had; none takes an attribute assignment
    from elastoplasmon.lame import LameParams, mode_constants, plasmon_constants
    from elastoplasmon.scenarios import WITNESSES, fixed_configuration, scheduled_configuration, sweep
    from elastoplasmon.transmission import SourceSpec

    params = LameParams(1.0, 1.0)
    fixed = fixed_configuration(params, 2.0, -4.0, SourceSpec(3.0, {(2, 1, 1): 1.0}), core_radius=1.0)
    result = sweep(fixed, [1e-2, 1e-3, 1e-4, 1e-5])
    records = [mode_constants(params, 3), plasmon_constants(params, 3), result.rows[0], result, WITNESSES[1], fixed,
               scheduled_configuration(params, 2.0, 2.3, core_radius=1.0)]
    assert [type(r).__name__ for r in records] == ["ModeConstants", "PlasmonConstants", "EnergyReport", "SweepResult",
                                                   "Witness", "fixed_configuration", "scheduled_configuration"]
    assert repr(records[1]) == "PlasmonConstants(n=3, zeta1=-2.5, zeta2=-2.1818181818181817, zeta3=-0.6578947368421053)"
    hashable = []
    for record in records:
        names = type(record)._fields
        values = tuple(getattr(record, name) for name in names)
        assert repr(record) == f"{type(record).__name__}({', '.join(f'{k}={v!r}' for k, v in zip(names, values))})"
        twin = type(record)(*values)
        assert twin == record and twin is not record and not twin != record
        assert record._replace(**{names[-1]: "other"}) != record
        try:
            want = hash(values)
        except TypeError:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(twin) == want
            hashable.append(type(record).__name__)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
    assert hashable == ["ModeConstants", "PlasmonConstants", "EnergyReport", "Witness", "scheduled_configuration"]
