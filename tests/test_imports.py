"""No module of the package imports a name it never uses, and importing
the CLI loads no module it does not need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fanolab"


def unused_imports(source):
    """Names bound by imports in source that no expression reads.

    ``from __future__`` imports are directives, not bindings, and are
    skipped; ``import a.b`` binds ``a``.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom math import gcd, lcm as l\n"
              "print(os.path.sep, l(2, 3))\n")
    assert unused_imports(source) == ["gcd"]


# __init__.py imports to re-export, so its names are used by importers
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("[!_]*.py")),
                         ids=lambda path: path.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_leaves_sympy_unloaded():
    # only factoring needs sympy, and importing it dominates start-up;
    # fanolab.mutation.sympy still reads as the module
    code = ("import sys, fanolab.cli; print('sympy' in sys.modules); "
            "print(fanolab.mutation.sympy is sys.modules['sympy'])")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]
