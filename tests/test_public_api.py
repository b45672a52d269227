"""Every public name the package declares resolves.

A name deleted from a module but left in its ``__all__``, or in the
package's own imports, fails here rather than at a user's import.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import zernkit

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(zernkit.__path__)
    if info.name != "__main__"  # importing it runs the CLI
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"zernkit.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(zernkit.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"zernkit.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert getattr(zernkit, alias.asname or alias.name) is getattr(
                module, alias.name
            )
