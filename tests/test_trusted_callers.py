"""Which modules may build a table without checking its values.

``CanonicalTable.trusted`` skips ``check_value``, so only code that
builds tables from values already checked may call it: the engines and
the migrator. Input parsing, datagen and the CLI take data from outside
and must use the checking constructor. This reads each module's syntax
tree with the standard library, in the style of ``test_imports.py``.
"""

import ast
import pathlib

import polydawg

PACKAGE = pathlib.Path(next(iter(polydawg.__path__)))
ALLOWED = {"engines/array.py", "engines/relational.py", "migrator.py"}


def trusted_calls(source):
    """(enclosing function, line) of each ``<anything>.trusted(...)``
    call in ``source``; the function is None at module level."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "trusted"):
                found.append((func, child.lineno))
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def _calls_by_module():
    return {str(path.relative_to(PACKAGE)): trusted_calls(path.read_text())
            for path in sorted(PACKAGE.rglob("*.py"))}


def test_only_engines_and_the_migrator_build_trusted_tables():
    calls = _calls_by_module()
    callers = {module for module, found in calls.items() if found}
    assert callers == ALLOWED


def test_input_parsing_datagen_and_the_cli_never_trust():
    calls = _calls_by_module()
    assert [f for f, _ in calls["canonical.py"] if f == "parse_cif"] == []
    assert calls["datagen.py"] == []
    assert calls["cli.py"] == []


def test_trusted_call_detection():
    source = ("from polydawg.canonical import CanonicalTable as T\n"
              "x = T.trusted([], [])\n"
              "def f(t):\n"
              "    def g():\n"
              "        return T(t.trusted)\n"
              "    return [T.trusted(s, r) for s, r in t]\n"
              "class C:\n"
              "    def parse_cif(self):\n"
              "        return self.m(T.trusted(1, 2))\n")
    assert trusted_calls(source) == [(None, 2), ("f", 6), ("parse_cif", 9)]
