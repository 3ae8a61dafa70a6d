"""Every name a uwconvoy module imports is used in that module, and every
module-level private name is used somewhere in the package.

No linter ships with the test extra, so this stands in for the unused-import
and dead-code checks: a refactor that leaves an import or a private helper
behind fails here.
"""

import ast
from pathlib import Path

import pytest

import uwconvoy

PACKAGE = sorted(Path(uwconvoy.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level `_name`s that no top-level statement of any module
    references, other than the statement that defines them."""
    statements = [
        (module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body
    ]
    references = [_referenced_names(stmt) for _, stmt in statements]
    dead = []
    for i, (module, stmt) in enumerate(statements):
        for name in _defined_names(stmt):
            used = any(name in refs for j, refs in enumerate(references) if j != i)
            if name.startswith("_") and not name.startswith("__") and not used:
                dead.append(f"{module} line {stmt.lineno}: {name}")
    return dead


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
