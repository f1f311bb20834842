"""Public names: every ``__all__`` entry exists, and the package re-exports only public names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import elastoplasmon

MODULES = sorted(m.name for m in pkgutil.iter_modules(elastoplasmon.__path__))


def test_every_all_entry_resolves():
    for name in MODULES:
        mod = importlib.import_module(f"elastoplasmon.{name}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, (name, missing)


def test_package_imports_only_names_in_all():
    tree = ast.parse(Path(elastoplasmon.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1 and node.module in MODULES, ast.dump(node)
        public = importlib.import_module(f"elastoplasmon.{node.module}").__all__
        stray = [a.name for a in node.names if a.name not in public]
        assert not stray, (node.module, stray)
