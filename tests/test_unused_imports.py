"""Every name a uwconvoy module imports is used in that module, every
module-level private name is used somewhere in the package, no module
reaches into another's private names, and every public name and public
method of the package has a caller outside the tests.

No linter ships with the test extra, so this stands in for the unused-import
and dead-code checks: a refactor that leaves an import or a private helper
behind, or public API that only tests call, fails here.
"""

import ast
from pathlib import Path

import pytest

import uwconvoy

PACKAGE = sorted(Path(uwconvoy.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
# public with no caller but the tests: the reference objectives of
# acceptance criteria 2 and 3, which no detector in the package trains
REFERENCE_LOSSES = {"rrolo_gradient", "rrolo_loss", "vgg_gradient", "vgg_loss"}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_guard_flags_an_unused_import():
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int = 0\n"
    assert _unused_imports(source) == ["line 1: field"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def _defined_names(stmt: ast.stmt) -> list[tuple[str, int]]:
    """The module-level names a top-level statement binds, with their lines;
    for a class, also each of its methods and properties, as `Class.method`."""
    if isinstance(stmt, ast.ClassDef):
        methods = (n for n in stmt.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))
        return [(stmt.name, stmt.lineno)] + [(f"{stmt.name}.{m.name}", m.lineno) for m in methods]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [(stmt.name, stmt.lineno)]
    if isinstance(stmt, ast.Assign):
        return [(t.id, stmt.lineno) for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [(stmt.target.id, stmt.lineno)]
    return []


def _referenced_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unreferenced(sources: dict[str, str], wanted, readers: dict[str, str]) -> list[str]:
    """Names `sources` define, among those `wanted` accepts, that no top-level
    statement of `sources` other than the defining one references, and that
    nothing in `readers` references. A method counts as referenced wherever
    an attribute of its name is read."""
    statements = [
        (module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body
    ]
    references = [_referenced_names(stmt) for _, stmt in statements]
    outside = set().union(*(_referenced_names(ast.parse(source)) for source in readers.values()))
    dead = []
    for i, (module, stmt) in enumerate(statements):
        for name, line in _defined_names(stmt):
            attr = name.rsplit(".", 1)[-1]
            used = attr in outside or any(attr in refs for j, refs in enumerate(references) if j != i)
            if wanted(name) and not used:
                dead.append(f"{module} line {line}: {name}")
    return dead


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    # module-level only: a private method is called from its own class
    return _unreferenced(sources, lambda name: "." not in name and _private(name), {})


def _test_only_public_names(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Public module-level names and public methods of public classes in
    `sources` (the package) that neither another statement of the package
    nor `readers` (the benchmark) references."""
    return _unreferenced(
        sources, lambda name: not any(part.startswith("_") for part in name.split(".")), readers
    )


def test_guard_flags_a_dead_private_name():
    source = (
        "def _used():\n    return 1\n\n"
        "def _dead(n):\n    return _dead(n - 1)\n\n"
        "_DEAD_CONST = 2\n\n"
        "X = _used()\n"
    )
    expected = ["m.py line 4: _dead", "m.py line 7: _DEAD_CONST"]
    assert _dead_private_names({"m.py": source}) == expected


def test_package_uses_every_private_name():
    assert _dead_private_names({p.name: p.read_text() for p in PACKAGE}) == []


def test_guard_flags_a_public_function_only_tests_call():
    source = (
        "def called():\n    pass\n\n"
        "def benched():\n    return called()\n\n"
        "def tested(n):\n    return tested(n - 1)\n"
    )
    bench = {"bench.py": "import m\n\nm.benched()\n"}
    assert _test_only_public_names({"m.py": source}, bench) == ["m.py line 7: tested"]


def test_guard_flags_a_public_method_only_tests_call():
    source = (
        "class A:\n"
        "    def __init__(self):\n        self.n = 0\n\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    def benched(self):\n        return 2\n\n"
        "    def tested(self):\n        return 3\n\n"
        "def make():\n    return A().size\n"
    )
    bench = {"bench.py": "import m\n\nm.make()\nm.A().benched()\n"}
    assert _test_only_public_names({"m.py": source}, bench) == ["m.py line 12: A.tested"]


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = {p.name: p.read_text() for p in PACKAGE}
    readers = {p.name: p.read_text() for p in PERFBENCH}
    found = _test_only_public_names(sources, readers)
    assert {entry.rsplit(": ", 1)[1] for entry in found} == REFERENCE_LOSSES, found


def test_package_re_exports_nothing():
    # an import in `__init__` would count as a caller of every name it names
    body = ast.parse(Path(uwconvoy.__file__).read_text()).body
    assert [type(stmt) for stmt in body] == [ast.Expr]


def _foreign_private_names(source: str) -> list[str]:
    """Private names a package module takes from another package module:
    `from .m import _name`, or `m._name` after `from . import m`."""
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("uwconvoy")):
            if node.module in (None, "uwconvoy"):
                modules.update(alias.asname or alias.name for alias in node.names)
            found += [f"line {node.lineno}: {a.name}" for a in node.names if _private(a.name)]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_guard_flags_a_private_name_taken_from_another_module():
    source = (
        "from __future__ import annotations\n"
        "from . import fileio\n"
        "from .mdpm import MdpmConfig, _band_frequencies\n"
        "from numpy import _NoValue\n"
        "x = fileio._csv(fileio.HEADER, self._rows, _NoValue, MdpmConfig)\n"
    )
    assert _foreign_private_names(source) == ["line 3: _band_frequencies", "line 5: fileio._csv"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_module_takes_no_private_name_from_another(path):
    assert _foreign_private_names(path.read_text()) == []

