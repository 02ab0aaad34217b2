"""Import hygiene for the package: no module-level import goes unused.

No linter ships with the toolchain, so this reads each module's syntax
tree with the standard library instead.
"""

import ast
import pathlib

import polydawg

PACKAGE = pathlib.Path(next(iter(polydawg.__path__)))


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
