"""Every name a package module imports is used, and the package exports exactly what it imports.

A stdlib ``ast`` scan stands in for a linter: it catches the stale imports
and exports that deleting a function leaves behind.  An import on a line
marked ``# noqa: F401`` binds its name on purpose and is skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "noisybell"


def exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def imported(tree: ast.Module, lines: list[str]) -> set[str]:
    """Names bound by the module's imports, except __future__ and # noqa: F401 lines."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    names.add(alias.asname or alias.name.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(exported(tree))
    assert sorted(imported(tree, source.splitlines()) - used) == []


def test_init_exports_exactly_what_it_imports():
    source = (PACKAGE / "__init__.py").read_text()
    tree = ast.parse(source)
    assert imported(tree, source.splitlines()) == set(exported(tree))
