"""Every public name the package declares resolves, and importing the
command line loads nothing from scipy.

A name deleted from a module but left in its ``__all__``, or in the
package's own imports, fails here rather than at a user's import.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_cli_import_loads_nothing_from_scipy():
    # a fresh interpreter: the suite itself imports scipy.linalg
    script = (
        "import sys, zernkit.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "zernkit.samplings.generate_nodes('approx-fekete', 3)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    src = str(Path(zernkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        check=True, timeout=120,
    )
    after_import, after_fekete = result.stdout.splitlines()
    assert after_import == "[]"
    # approx-fekete loads LAPACK's wrappers alone, not the scipy.linalg package
    assert after_fekete == "['scipy.linalg._flapack']"
