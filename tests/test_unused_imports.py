"""Every name a uwconvoy module imports is used in that module, every
module-level private name is used somewhere in the package, no module
reaches into another's private names, and every name the package exports
has a caller outside the tests.

No linter ships with the test extra, so this stands in for the unused-import
and dead-code checks: a refactor that leaves an import or a private helper
behind, or public API that only tests call, fails here.
"""

import ast
from pathlib import Path

import pytest

import uwconvoy

PACKAGE = sorted(Path(uwconvoy.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
# exported with no caller but the tests: the reference objectives of
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _referenced_names(stmt: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unreferenced(sources: dict[str, str], wanted) -> list[str]:
    """Module-level names, among those `wanted` accepts, that no top-level
    statement of any source references, other than the statement that
    defines them."""
    statements = [
        (module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body
    ]
    references = [_referenced_names(stmt) for _, stmt in statements]
    dead = []
    for i, (module, stmt) in enumerate(statements):
        for name in _defined_names(stmt):
            used = any(name in refs for j, refs in enumerate(references) if j != i)
            if wanted(name) and not used:
                dead.append(f"{module} line {stmt.lineno}: {name}")
    return dead


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    return _unreferenced(sources, _private)


def _test_only_exports(init_source: str, sources: dict[str, str]) -> list[str]:
    """Names the package `__init__` imports that nothing in `sources`
    (the other modules and the benchmark) references."""
    exported = {
        alias.name
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return _unreferenced(sources, exported.__contains__)


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


def test_guard_flags_an_export_only_tests_call():
    init = "from .m import called, benched, tested\n"
    sources = {
        "m.py": "def called():\n    pass\n\n"
        "def benched():\n    return called()\n\n"
        "def tested():\n    pass\n",
        "bench.py": "import m\n\nm.benched()\n",
    }
    assert _test_only_exports(init, sources) == ["m.py line 7: tested"]


def test_every_export_has_a_caller_outside_the_tests():
    sources = {p.relative_to(p.parents[1]).as_posix(): p.read_text() for p in MODULES + PERFBENCH}
    found = _test_only_exports(Path(uwconvoy.__file__).read_text(), sources)
    assert {entry.rsplit(": ", 1)[1] for entry in found} == REFERENCE_LOSSES, found


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

