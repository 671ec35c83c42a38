"""Every name a package module imports is used in that module, and every
module-level private function or class is used somewhere in the package.

No linter ships with the project, so this walks each module's syntax tree
with ``ast``.  ``__init__.py`` is left out of the import check: its imports
are the package's public re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "attnplan"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport sys\nfrom json import dumps, loads\nprint(sys.argv, loads)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: dumps"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(module: Path):
    assert unused_imports(module.read_text()) == []


def referenced_names(node: ast.AST) -> set[str]:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each module-level private function or class that
    no other top-level statement of any of ``sources`` names."""
    statements = [
        (module, statement)
        for module, source in sources.items()
        for statement in ast.parse(source).body
    ]
    names = [referenced_names(statement) for _, statement in statements]
    out = []
    for k, (module, statement) in enumerate(statements):
        if not isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = statement.name
        if not name.startswith("_") or name.startswith("__"):
            continue
        if not any(name in used for j, used in enumerate(names) if j != k):
            out.append(f"{module}: {name}")
    return out


def test_the_check_finds_an_unused_private_definition():
    sources = {
        "a.py": "def _used():\n    return 1\n\ndef _unused():\n    return _unused()\n",
        "b.py": "from .a import _used\n\nclass _Helper:\n    pass\n\nprint(_used())\n",
    }
    assert unused_private_definitions(sources) == ["a.py: _unused", "b.py: _Helper"]


def test_package_uses_every_private_definition():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unused_private_definitions(sources) == []
