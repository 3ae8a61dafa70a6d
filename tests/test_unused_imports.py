"""Every name a uwconvoy module imports is used in that module.

No linter ships with the test extra, so this stands in for the unused-import
check: a refactor that leaves an import behind fails here.
"""

import ast
from pathlib import Path

import pytest

import uwconvoy

MODULES = sorted(
    p for p in Path(uwconvoy.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


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
