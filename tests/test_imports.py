"""Every name a package module imports is used, every private module-level name has a reader,
the package exports exactly what it imports, README's library table names only what its modules have,
and every dotted ``noisybell.<module>`` or ``noisybell.<module>.<NAME>`` README cites is there.

A stdlib ``ast`` scan stands in for a linter: it catches the stale imports,
exports and private helpers that deleting a function leaves behind.  An import on a line
marked ``# noqa: F401`` binds its name on purpose and is skipped.
"""

import ast
import builtins
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "noisybell"


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


def private_names(statement: ast.stmt) -> set[str]:
    """Names starting with one underscore that a top-level statement defines."""
    names = set()
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names.add(statement.name)
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names |= {t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def references(tree: ast.AST) -> set[str]:
    """Names the code reads, looks up as attributes or imports from another module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def orphaned_private_names(sources: dict[str, str]) -> dict[str, list[str]]:
    """Per module, in source order, the top-level _names read by no statement but the one defining them."""
    statements = [(module, node) for module, source in sources.items() for node in ast.parse(source).body]
    orphans: dict[str, list[str]] = {}
    for module, statement in statements:
        for name in sorted(private_names(statement)):
            if not any(name in references(other) for _, other in statements if other is not statement):
                orphans.setdefault(module, []).append(name)
    return orphans


def test_every_private_name_is_used():
    """A module-level _name that nothing else in the package reads is dead code left behind by a deletion."""
    assert orphaned_private_names({path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}) == {}


def test_orphan_check_ignores_a_helpers_own_definition():
    """A helper whose only caller is itself, or a constant read only where it is bound, counts as orphaned."""
    sources = {
        "a.py": "def _layout(cdf):\n    return _layout(cdf[1:]) if cdf else ()\n_CELLS = 64\ndef _fold():\n    pass\n",
        "b.py": "from .a import _fold\n_LIMIT = 2\ndef total():\n    return _fold() + _LIMIT\n",
    }
    assert orphaned_private_names(sources) == {"a.py": ["_layout", "_CELLS"]}


def library_table_rows() -> list[str]:
    return re.search(r"\n## Library layout\n\n((?:\|.*\n)+)", (ROOT / "README.md").read_text()).group(1).splitlines()


def leading_names(text: str) -> set[str]:
    """The leading identifier of every backticked span in ``text``."""
    return set(re.findall(r"`([A-Za-z_]\w*)", text))


def library_table_names() -> set[str]:
    """The leading identifier of every backticked span in the rows of README's library table."""
    return leading_names("\n".join(library_table_rows()))


def test_every_export_is_used_or_documented():
    """An exported name another package module reads, or README's library table names; anything else is dead API."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    init = trees.pop("__init__.py")
    imports = [node for node in init.body if isinstance(node, ast.ImportFrom)]
    home = {alias.name: f"{node.module}.py" for node in imports for alias in node.names}
    used = {name for name, module in home.items() if any(name in references(trees[m]) for m in trees if m != module)}
    assert sorted(set(exported(init)) - used - library_table_names()) == []


def resolves(module, name: str) -> bool:
    """A module attribute, a member of a class the module defines, a parameter of one of its functions, or a builtin."""
    if hasattr(module, name) or hasattr(builtins, name):
        return True
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, type) and name in dir(value):
            return True
        if inspect.isfunction(value) and name in inspect.signature(value).parameters:
            return True
    return False


def test_every_documented_name_exists():
    """Each name README's library table gives a module is there, so a deletion cannot leave the table stale."""
    unresolved = {}
    for row in library_table_rows():
        _, module_cell, contents = row.split("|", 2)
        match = re.fullmatch(r"`(noisybell\.\w+)`", module_cell.strip())
        if match:
            module = importlib.import_module(match.group(1))
            unresolved[module.__name__] = sorted(name for name in leading_names(contents) if not resolves(module, name))
    assert sorted(unresolved) == sorted(f"noisybell.{path.stem}" for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    assert {module: names for module, names in unresolved.items() if names} == {}


def unresolved_dotted_names(text: str) -> list[str]:
    """Each ``noisybell.<module>`` or ``noisybell.<module>.<NAME>`` in ``text`` that is not a package module or its attribute."""
    stale = set()
    for module, name in re.findall(r"\bnoisybell\.(\w+)(?:\.(\w+))?", text):
        if not (PACKAGE / f"{module}.py").is_file():
            stale.add(f"noisybell.{module}")
        elif name and not hasattr(importlib.import_module(f"noisybell.{module}"), name):
            stale.add(f"noisybell.{module}.{name}")
    return sorted(stale)


def test_every_dotted_name_in_readme_resolves():
    """README's prose cites modules and constants by dotted name too; a merge or deletion cannot leave one stale."""
    assert unresolved_dotted_names("`noisybell.scan.BLOCK`, noisybell.states, noisybell.scan.NO_SUCH.") == [
        "noisybell.scan.NO_SUCH",
        "noisybell.states",
    ]
    assert unresolved_dotted_names((ROOT / "README.md").read_text()) == []
