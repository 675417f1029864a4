"""No module of the package imports a name it never uses."""

import ast
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
