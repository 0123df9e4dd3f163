"""Every name a package or test module imports is used in that module, the
package's `__all__` lists exactly its public names, and one function of the
package sets the collector policy.

No linter ships with the project, so this walks each module's syntax tree
instead: an import whose name never appears as an identifier in the same
module fails, unless its line carries ``# noqa: F401`` (a name kept only
so that other code can import it from there).  The package `__init__`
re-exports by design and is not checked.  The benchmark's modules under
`perfbench/` are not checked either.

The same walk finds every call of `gc.disable`, `gc.enable`, `gc.freeze`
and `gc.unfreeze` (and every `from gc import` of them) in the package:
only `runtime.collector_paused` may make one, so pausing and promoting
stay in one place.
"""

import ast
import types
from pathlib import Path

import pytest

import radioleader

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "radioleader"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


COLLECTOR_POLICY = {"disable", "enable", "freeze", "unfreeze"}


def collector_calls(source: str):
    """(line, enclosing function path, name) of every collector-policy call
    or `from gc import`; the path is "" at module level."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}".lstrip("."))
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and isinstance(child.func.value, ast.Name)
                    and child.func.value.id == "gc"
                    and child.func.attr in COLLECTOR_POLICY):
                found.append((child.lineno, owner, child.func.attr))
            if isinstance(child, ast.ImportFrom) and child.module == "gc":
                found.extend((child.lineno, owner, alias.name) for alias in child.names
                             if alias.name in COLLECTOR_POLICY)
            visit(child, owner)

    visit(ast.parse(source), "")
    return sorted(found)


def test_collector_checker_names_the_enclosing_function():
    source = (
        "import gc\n"
        "from gc import collect, freeze\n"
        "def f():\n"
        "    gc.disable()\n"
        "    def g():\n"
        "        gc.unfreeze()\n"
        "class C:\n"
        "    def m(self):\n"
        "        gc.collect(); gc.enable()\n"
        "gc.isenabled() or gc.freeze()\n"
    )
    assert collector_calls(source) == [
        (2, "", "freeze"), (4, "f", "disable"), (6, "f.g", "unfreeze"),
        (9, "C.m", "enable"), (10, "", "freeze"),
    ]


def test_only_collector_paused_sets_the_collector_policy():
    found = [(path.stem, owner, line, name)
             for path in sorted(PACKAGE.glob("*.py"))
             for line, owner, name in collector_calls(path.read_text())]
    assert found
    assert [f for f in found if f[:2] != ("runtime", "collector_paused")] == []


def test_checker_flags_unused_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import (\n"
        "    List,\n"
        "    Tuple,  # noqa: F401\n"
        ")\n"
        "x: List[int] = []\n"
    )
    assert unused_imports(source) == [(2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_all_lists_exactly_the_public_names():
    for name in radioleader.__all__:
        assert hasattr(radioleader, name), name
    public = {
        name for name, value in vars(radioleader).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(radioleader.__all__) == sorted(public)
