"""No module of the package imports a name it never uses or imports inside
a function (bar the lazy sympy import), reads sympy for anything but
factoring, enumerates orders or subsets with itertools, keeps a private
helper nothing calls, a dataclass field or instance attribute nothing
reads or a parameter its function never reads, or caches a function for
the whole process (bar the CLI parser), the CLI reads every option it
parses, and importing the CLI loads no module it does not need."""

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


def imports_in_functions(source):
    """Import statements inside function bodies, as sorted
    ``"function.module"`` strings (nested functions count as their own)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Import):
                found += [f"{node.name}.{alias.name}" for alias in sub.names]
            elif isinstance(sub, ast.ImportFrom):
                dots = "." * sub.level
                found.append(f"{node.name}.{dots}{sub.module or ''}")
    return sorted(set(found))


def test_imports_in_functions_are_found():
    source = ("import os\n"
              "def f():\n    from .laurent import parse_polynomial\n"
              "    def g():\n        import sympy\n"
              "    return g\n"
              "class C:\n    def m(self):\n        from . import linalg\n"
              "        return linalg\n")
    assert imports_in_functions(source) == [
        "f..laurent", "f.sympy", "g.sympy", "m.."]


# sympy is imported on first use, because only factoring needs it
LAZY_IMPORTS = {"mutation.py": ["_sympy.sympy"]}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_package_imports_at_module_level(path):
    assert imports_in_functions(path.read_text()) == \
        LAZY_IMPORTS.get(path.name, [])


# sympy only factors: a polynomial is factored by ``sympy.factor_list`` of a
# ``sympy.Poly``, read through the module global, which a tracer can replace
SYMPY_ATTRIBUTES = {"factor_list", "Poly", "Symbol"}


def stray_sympy_reads(source):
    """Attribute reads of the name ``sympy`` other than SYMPY_ATTRIBUTES,
    and reads of ``factor_list`` on anything but that name (a
    ``Poly.factor_list()`` call would bypass ``sympy.factor_list``), as
    sorted source strings."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        on_sympy = isinstance(node.value, ast.Name) and node.value.id == "sympy"
        if (node.attr not in SYMPY_ATTRIBUTES if on_sympy
                else node.attr == "factor_list"):
            found.append(ast.unparse(node))
    return sorted(found)


def test_stray_sympy_reads_are_found():
    source = ("import sympy\n"
              "p = sympy.Poly([1, 2, 1], sympy.Symbol('t'))\n"
              "sympy.factor_list(p)\n"
              "sympy.factor(p)\n"
              "p.factor_list()\n"
              "sympy.polys.factor_list(p)\n"
              "sym.Rational(1, 2)\n")
    assert stray_sympy_reads(source) == [
        "p.factor_list", "sympy.factor", "sympy.polys",
        "sympy.polys.factor_list"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_package_uses_sympy_only_to_factor(path):
    assert stray_sympy_reads(path.read_text()) == []


# k! orders and point subsets belong to the test oracles
# (``tests/nf_oracle.py``, ``tests/hull_oracle.py``)
ENUMERATORS = {"permutations", "combinations"}


def enumerator_reads(source):
    """Names of ENUMERATORS imported from ``itertools`` or read as
    attributes of the name ``itertools``, as sorted strings."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            found |= {alias.name for alias in node.names} & ENUMERATORS
        elif isinstance(node, ast.Attribute) and node.attr in ENUMERATORS \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "itertools":
            found.add(node.attr)
    return sorted(found)


def test_enumerator_reads_are_found():
    source = ("from itertools import product, permutations as perms\n"
              "import itertools\n"
              "itertools.combinations([1, 2], 1)\n"
              "itertools.chain()\n"
              "combinations = None\n")
    assert enumerator_reads(source) == ["combinations", "permutations"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_package_enumerates_no_orders_or_subsets(path):
    assert enumerator_reads(path.read_text()) == []


def unreferenced_private_definitions(sources):
    """Private top-level functions and classes that nothing references.

    ``sources`` maps module names to source text.  A name is private when it
    has one leading underscore (dunders such as a module ``__getattr__`` are
    hooks Python calls).  A definition is referenced when another top-level
    statement of any module reads the name, reads an attribute of that
    name, or imports it; its own body does not count.  Returns sorted
    ``"module.name"`` strings.
    """
    statements = []  # (module, node, names the node mentions)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.ImportFrom):
                    names |= {alias.name for alias in sub.names}
            statements.append((module, node, names))
    return sorted(
        f"{module}.{node.name}" for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and not any(node.name in names for _, other, names in statements
                    if other is not node))


def test_unreferenced_private_definitions_are_found():
    sources = {
        "a": ("def _used():\n    return 1\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "class _Dead:\n    pass\n"
              "def __getattr__(name):\n    raise AttributeError(name)\n"
              "def public():\n    return _used()\n"),
        "b": ("from .c import _imported\n"
              "import c\nc._by_attribute()\n"),
        "c": ("def _imported():\n    pass\n"
              "def _by_attribute():\n    pass\n"),
    }
    assert unreferenced_private_definitions(sources) == [
        "a._Dead", "a._recursive"]


def test_package_has_no_unreferenced_private_definitions():
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_definitions(sources) == []


def attribute_reads(readers):
    """The names of the attributes that some text of ``readers`` loads from
    anything."""
    return {node.attr for text in readers for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def unread_dataclass_fields(sources, readers):
    """Fields of the dataclasses in ``sources`` that no attribute read names.

    ``sources`` maps module names to source text.  A dataclass is a class
    decorated with ``dataclass``, called or not, by name or as an
    attribute; its fields are the names annotated in its body.  A field is
    read when some text of ``readers`` loads an attribute of that name from
    anything.  Returns sorted ``"module.Class.field"`` strings.
    """
    read = attribute_reads(readers)
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef) or not any(
                    ast.unparse(getattr(d, "func", d)).split(".")[-1]
                    == "dataclass" for d in node.decorator_list):
                continue
            found += [f"{module}.{node.name}.{stmt.target.id}"
                      for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and stmt.target.id not in read]
    return sorted(found)


def test_unread_dataclass_fields_are_found():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass P:\n"
              "    x: int\n    y: int\n    z: int = 0\n"
              "    def total(self):\n        return self.z\n"
              "@dataclasses.dataclass\nclass Q:\n    w: int\n"
              "class R:\n    v: int\n")
    reader = "print(p.x, 'p.y', y)\nq.w = 1\n"
    assert unread_dataclass_fields({"a": source}, [source, reader]) == [
        "a.P.y", "a.Q.w"]


def unread_instance_attributes(sources, readers):
    """Attributes that the methods of the classes in ``sources`` set as
    ``self.name = ...``, alone or in a tuple target, and that no attribute
    read of ``readers`` names.  Returns sorted ``"module.Class.name"``
    strings."""
    read = attribute_reads(readers)
    found = set()
    for module, source in sources.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                found |= {f"{module}.{cls.name}.{node.attr}"
                          for stmt in ast.walk(method)
                          if isinstance(stmt, ast.Assign)
                          for target in stmt.targets
                          for node in ast.walk(target)
                          if isinstance(node, ast.Attribute)
                          and isinstance(node.value, ast.Name)
                          and node.value.id == "self"
                          and node.attr not in read}
    return sorted(found)


def test_unread_instance_attributes_are_found():
    source = ("class P:\n"
              "    def __init__(self, a):\n"
              "        self.a, self.b = a, 1\n"
              "        self.c = self.d = 2\n"
              "        other.e = 3\n"
              "    def total(self):\n        return self.b\n"
              "class Q(ValueError):\n"
              "    def __init__(self, where):\n        self.where = where\n")
    reader = "print(p.c, 'p.a')\n"
    assert unread_instance_attributes({"a": source}, [source, reader]) == [
        "a.P.a", "a.P.d", "a.Q.where"]


def _package_sources_and_readers():
    root = PACKAGE.parent.parent
    readers = [path.read_text() for folder in ("src", "tests", "bench")
               for path in sorted((root / folder).rglob("*.py"))]
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    return sources, readers


def test_package_dataclasses_have_no_unread_fields():
    assert unread_dataclass_fields(*_package_sources_and_readers()) == []


def test_package_classes_have_no_unread_instance_attributes():
    assert unread_instance_attributes(*_package_sources_and_readers()) == []


# a memo lives as long as the search that owns it: a process-wide cache
# would share entries between the jobs of one process and between tests;
# the CLI builds its parser once per process
CACHES = {"cache", "lru_cache"}
CACHED = {"cli.py": ["build_parser"]}


def cached_definitions(source):
    """Functions and classes decorated with ``functools.cache`` or
    ``lru_cache``, read as attributes of ``functools`` or imported from it,
    called or not, as sorted names."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "functools"
                for alias in node.names if alias.name in CACHES}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        for decorator in node.decorator_list:
            target = (decorator.func if isinstance(decorator, ast.Call)
                      else decorator)
            if isinstance(target, ast.Name) and target.id in imported or (
                    isinstance(target, ast.Attribute)
                    and target.attr in CACHES
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "functools"):
                found.append(node.name)
    return sorted(found)


def test_cached_definitions_are_found():
    source = ("import functools\n"
              "from functools import lru_cache as memo, reduce\n"
              "@functools.cache\ndef a():\n    pass\n"
              "@memo(maxsize=None)\ndef b():\n    pass\n"
              "class C:\n    @functools.lru_cache()\n"
              "    def m(self):\n        pass\n"
              "@reduce\ndef d():\n    pass\n"
              "@other.cache\ndef e():\n    pass\n"
              "def cache(f):\n    return f\n")
    assert cached_definitions(source) == ["a", "b", "m"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_package_keeps_no_process_wide_cache(path):
    assert cached_definitions(path.read_text()) == CACHED.get(path.name, [])


def unread_parameters(source):
    """Parameters that the body of their function never reads.

    Nested functions count as part of the body that encloses them.  Dunder
    methods are skipped, because Python fixes their signatures.  Returns
    sorted ``"function.parameter"`` strings.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args
                  + args.kwonlyargs + [args.vararg, args.kwarg] if a]
        read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        found += [f"{node.name}.{p}" for p in params if p not in read]
    return sorted(found)


def test_unread_parameters_are_found():
    source = ("def key(command, args, extras):\n"
              "    return command, extras\n"
              "def outer(a, *rest, b=1, **kw):\n"
              "    def inner(c):\n        return a\n"
              "    b = 2\n    return inner, kw\n"
              "class C:\n"
              "    def __exit__(self, *exc):\n        pass\n"
              "    def method(self, x):\n        return x\n")
    assert unread_parameters(source) == [
        "inner.c", "key.args", "method.self", "outer.b", "outer.rest"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_package_reads_every_parameter(path):
    assert unread_parameters(path.read_text()) == []


def unread_options(source):
    """Destinations of the ``add_argument`` calls in source that no
    ``args.<dest>`` load reads, as sorted strings.  A destination is the
    ``dest`` keyword, else the first long option, else the first name,
    without leading dashes and with inner dashes read as underscores."""
    tree = ast.parse(source)
    dests = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            continue
        names = [arg.value for arg in node.args
                 if isinstance(arg, ast.Constant)]
        dest = next((kw.value.value for kw in node.keywords
                     if kw.arg == "dest"), None)
        if dest is None:
            name = next((n for n in names if n.startswith("--")), names[0])
            dest = name.lstrip("-").replace("-", "_")
        dests.add(dest)
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    return sorted(dests - read)


def test_unread_options_are_found():
    source = ("p.add_argument('input')\n"
              "p.add_argument('-v', '--verbose-mode', action='store_true')\n"
              "p.add_argument('--out', dest='target')\n"
              "p.add_argument('--seen')\n"
              "p.add_argument('-q')\n"
              "s.add_argument('--count')\n"
              "def f(args):\n"
              "    return args.input, args.seen, other.count, args.q\n"
              "args.target = 1\n")
    assert unread_options(source) == ["count", "target", "verbose_mode"]


def test_cli_reads_every_option():
    assert unread_options((PACKAGE / "cli.py").read_text()) == []


def test_cli_import_leaves_sympy_unloaded():
    # only factoring needs sympy, and importing it dominates start-up;
    # fanolab.mutation.sympy still reads as the module
    code = ("import sys, fanolab.cli; print('sympy' in sys.modules); "
            "print(fanolab.mutation.sympy is sys.modules['sympy'])")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]


def test_reading_mutation_sympy_imports_it():
    code = ("import sys, fanolab.mutation as m; "
            "print('sympy' in sys.modules); m.sympy.factor_list; "
            "print('sympy' in sys.modules, m.sympy is sys.modules['sympy'])")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True", "True"]


def test_mutation_module_refuses_other_missing_names():
    from fanolab import mutation
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        mutation.nope
