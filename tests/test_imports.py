"""Hygiene for the package: no module-level import goes unused, and every
module-level function has a caller outside its own body.

No linter ships with the toolchain, so this reads each module's syntax
tree with the standard library instead.
"""

import ast
import pathlib

import polydawg

PACKAGE = pathlib.Path(next(iter(polydawg.__path__)))
ROOT = pathlib.Path(__file__).resolve().parents[1]
# Where a function's callers may live. The acceptance suite is the
# system's fixed interface, so a function it calls is not test-only.
CALLERS = [ROOT / "src", ROOT / "perfbench",
           ROOT / "tests" / "test_acceptance.py"]


def _bound_names(node):
    """(name, line) for every name a module-level import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [((alias.asname or alias.name).split(".")[0], node.lineno)
            for alias in node.names]


def _exported(tree):
    """Names listed in a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source):
    """(name, line) of each module-level import that ``source`` never uses."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return [
        (name, line)
        for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
        for name, line in _bound_names(node) if name not in used
    ]


def test_no_unused_module_level_imports():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    unused = [f"{path.relative_to(PACKAGE)}:{line}: {name}"
              for path in modules
              for name, line in unused_imports(path.read_text())]
    assert unused == []


def test_unused_import_detection():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nfrom a import b as c, d\n"
              "from e import f\n__all__ = ['f']\n"
              "def g():\n    import sys\n    return d\n")
    assert unused_imports(source) == [("os", 2), ("os", 3), ("c", 4)]


# Modules that polydawg.engines imports. None of them may import from it:
# ``engines/array.py`` imports ``migrator``, so a cycle back would fail in
# some import orders only.
BELOW_ENGINES = ("migrator", "canonical", "values", "errors")


def engine_imports(source):
    """Line of each import statement anywhere in ``source``, a top-level
    module of the package, that reaches ``polydawg.engines``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, [
                "polydawg" if node.level else None, node.module]))
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == "polydawg.engines" or n.startswith("polydawg.engines.")
               for n in names):
            lines.append(node.lineno)
    return lines


def test_modules_below_the_engines_do_not_import_them():
    found = {module: engine_imports((PACKAGE / f"{module}.py").read_text())
             for module in BELOW_ENGINES}
    assert found == {module: [] for module in BELOW_ENGINES}


def test_engine_import_detection():
    source = ("from . import engines\nfrom .engines.array import NDArray\n"
              "import polydawg.engines.base\nfrom polydawg import engines\n"
              "from .migrator import chain_for\nimport polydawg.values\n"
              "from .values import engines_x\n"
              "def f():\n    from .engines import keyvalue\n")
    assert engine_imports(source) == [1, 2, 3, 4, 9]


def _referenced(tree):
    """Names a module refers to, leaving out each module-level function's
    references to itself."""
    names = set()
    for node in tree.body:
        inner = {n.id if isinstance(n, ast.Name) else n.attr
                 for n in ast.walk(node)
                 if isinstance(n, (ast.Name, ast.Attribute))}
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner.discard(node.name)
        names |= inner
    return names


def uncalled_functions(modules, callers):
    """(module, name) of each module-level function defined in
    ``modules`` (``{module: source}``) that no source in ``callers``
    refers to outside the function's own body."""
    used = set()
    for source in callers:
        used |= _referenced(ast.parse(source))
    return [
        (module, node.name)
        for module, source in modules.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in used
    ]


def test_every_module_level_function_has_a_caller():
    modules = {str(path.relative_to(PACKAGE)): path.read_text()
               for path in sorted(PACKAGE.rglob("*.py"))}
    callers = [path.read_text() for root in CALLERS
               for path in ([root] if root.is_file()
                            else sorted(root.rglob("*.py")))]
    assert uncalled_functions(modules, callers) == []


def test_uncalled_function_detection():
    module = ("def used():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "def dead():\n    return used()\n"
              "class C:\n    def method(self):\n        return self.dead\n")
    caller = "import m\nm.C\n"
    assert uncalled_functions({"m": module}, [module, caller]) == [
        ("m", "recursive")]
    assert uncalled_functions({"m": module}, [caller]) == [
        ("m", "used"), ("m", "recursive"), ("m", "dead")]
