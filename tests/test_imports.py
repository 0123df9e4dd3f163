"""Every name a package or test module imports is used in that module, and
the package's `__all__` lists exactly its public names.

No linter ships with the project, so this walks each module's syntax tree
instead: an import whose name never appears as an identifier in the same
module fails, unless its line carries ``# noqa: F401`` (a name kept only
so that other code can import it from there).  The package `__init__`
re-exports by design and is not checked.  The benchmark's modules under
`perfbench/` are not checked either.
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
