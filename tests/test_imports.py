"""Every name a package or test module imports is used in that module, the
package's `__all__` lists exactly its public names, one function of the
package sets the collector policy, and the package defines nothing that
only its tests read.

No linter ships with the project, so this walks each module's syntax tree
instead: an import whose name never appears as an identifier in the same
module fails, unless its line carries ``# noqa: F401`` (a name kept only
so that other code can import it from there).  The package itself carries
no ``# noqa`` at all, so it keeps no import that only other code reads.
The package `__init__` re-exports by design and is not checked.  The
benchmark's modules under `perfbench/` are not checked either.

A walk that names each call's enclosing function finds every call of
`gc.disable`, `gc.enable`, `gc.freeze` and `gc.unfreeze` (and every `from
gc import` of them) in the package: only `runtime.collector_paused` may
make one, so pausing and promoting stay in one place.  The same walk finds
every call in `cli.py` that can write a file (`os.open`, `os.replace`,
`os.rename`, or `open` with a mode that writes, appends or creates): only
`cli._write_all` may make one, so every output is staged and renamed.

Another walk keeps the package to what its callers use: each top-level
`def`, `class` or assigned name in `src/radioleader/` is read by package
code outside its own definition or listed in `radioleader.__all__`.
Fixtures and references that only tests read live in the tests.
"""

import ast
import types
from collections import Counter
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


def unread_definitions(sources, exported=()):
    """(module, name) of every top-level def, class or assigned name in
    `sources` (module name -> source text) that no module reads outside
    that definition and `exported` does not list.  A read is a loaded name
    or attribute; an import is not one."""
    reads = Counter()
    defined = []
    for module, source in sorted(sources.items()):
        for node in ast.parse(source).body:
            found = Counter(
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))
                and isinstance(n.ctx, ast.Load)
            )
            reads += found
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name, found[node.name]))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, n.id, found[n.id]) for target in targets
                            for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [(module, name) for module, name, own in defined
            if reads[name] == own and name not in exported]


# the one definition shipped for callers outside the package: the reference
# merge schedule that the tests compare census_phase against and that the
# benchmark wraps to count census work
UNREAD_BUT_KEPT = [("dense", "census_merges")]


def test_unread_checker_names_the_offending_definition():
    sources = {
        "a": (
            "from b import helper\n"
            "def used(): return helper()\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Fixture: pass\n"
            "def public(): pass\n"
            "TABLE = {'x': used}\n"
            "LIMIT: int = 3\n"
            "WIDTH, DEPTH = 2, LIMIT\n"
        ),
        "b": (
            "def helper(): return 1\n"
            "def only_imported(): pass\n"
            "class Base: pass\n"
            "class Child(Base): pass\n"
            "def via_attribute(): pass\n"
            "def reader(mod): return mod.via_attribute\n"
        ),
        "c": "from b import only_imported\n",
    }
    assert unread_definitions(sources, exported=["public", "Child", "reader"]) == [
        ("a", "recursive"), ("a", "Fixture"), ("a", "TABLE"), ("a", "WIDTH"),
        ("a", "DEPTH"), ("b", "only_imported"),
    ]


def test_package_defines_only_what_it_reads_or_exports():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")
               if p.name != "__init__.py"}
    assert unread_definitions(sources, radioleader.__all__) == UNREAD_BUT_KEPT


def owned_matches(source: str, match):
    """(line, enclosing function path, name) of every name that `match`
    gives for a node of `source`; the path is "" at module level."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}".lstrip("."))
                continue
            found.extend((child.lineno, owner, name) for name in match(child))
            visit(child, owner)

    visit(ast.parse(source), "")
    return sorted(found)


def module_calls(node, module: str, names):
    """The names of `module` that `node` calls as `module.name(...)` or
    imports with `from module import`."""
    if isinstance(node, ast.ImportFrom) and node.module == module:
        return [alias.name for alias in node.names if alias.name in names]
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == module
            and node.func.attr in names):
        return [node.func.attr]
    return []


COLLECTOR_POLICY = {"disable", "enable", "freeze", "unfreeze"}


def collector_calls(source: str):
    """Every collector-policy call or `from gc import` of one."""
    return owned_matches(
        source, lambda node: module_calls(node, "gc", COLLECTOR_POLICY))


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


FILE_WRITES = {"open", "replace", "rename"}


def file_writes(source: str):
    """Every call of `os.open`, `os.replace` or `os.rename` (or `from os
    import` of one), and every `open` whose mode is not a constant that
    only reads."""
    def match(node):
        found = [f"os.{name}" for name in module_calls(node, "os", FILE_WRITES)]
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            modes = node.args[1:2] + [k.value for k in node.keywords
                                      if k.arg == "mode"]
            if not all(isinstance(m, ast.Constant) and isinstance(m.value, str)
                       and not set(m.value) & set("wax+") for m in modes):
                found.append("open")
        return found

    return owned_matches(source, match)


def test_write_checker_names_the_enclosing_function():
    source = (
        "import os\n"
        "from os import replace\n"
        "def f(path, mode):\n"
        "    open(path); open(path, 'rb'); open(path, mode='r')\n"
        "    open(path, 'w'); open(path, mode='a'); open(path, 'r+')\n"
        "    os.path.exists(path); os.stat(path)\n"
        "    def g():\n"
        "        open(path, mode); os.rename(path, path)\n"
        "class C:\n"
        "    def m(self):\n"
        "        os.open(self, os.O_WRONLY)\n"
        "open('x', 'x')\n"
    )
    assert file_writes(source) == [
        (2, "", "os.replace"), (5, "f", "open"), (5, "f", "open"),
        (5, "f", "open"), (8, "f.g", "open"), (8, "f.g", "os.rename"),
        (11, "C.m", "os.open"), (12, "", "open"),
    ]


def test_only_write_all_writes_the_cli_outputs():
    # every output goes through one staging path, so all-or-nothing and
    # the refusals hold for each
    found = file_writes((PACKAGE / "cli.py").read_text())
    assert {name for _, owner, name in found if owner == "_write_all"} == {
        "open", "os.replace"}
    assert [f for f in found if f[1] != "_write_all"] == []


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


def test_package_carries_no_noqa():
    found = [(path.name, number) for path in sorted(PACKAGE.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if "noqa" in line]
    assert found == []


def test_all_lists_exactly_the_public_names():
    for name in radioleader.__all__:
        assert hasattr(radioleader, name), name
    public = {
        name for name, value in vars(radioleader).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(radioleader.__all__) == sorted(public)
