"""Every name a package or test module imports is used, no module binds a top-level name twice, every
private module-level name has a reader, the package exports exactly what it imports, README's library
table names only what its modules have, every dotted ``noisybell.<module>`` or ``noisybell.<module>.<NAME>``
README cites is there, and each package module has its test modules.

A stdlib ``ast`` scan stands in for a linter: it catches the stale imports,
exports and private helpers that deleting a function leaves behind.  An import on a line
marked ``# noqa: F401`` binds its name on purpose and is skipped.
"""

import ast
import builtins
import importlib
import inspect
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "noisybell"
# The test modules that span the package rather than test one of its modules.
CROSS_CUTTING = {"acceptance", "golden", "imports", "tracing_targets"}
# ``noisybell.family`` merged the states, chsh and sequential modules, and ``noisybell.polytope`` took in the
# simplex module; their tests keep the test module names they had then, so that every test keeps its id.
TESTED_IN = {"family": {"states", "chsh", "sequential", "oracle"}, "polytope": {"polytope", "simplex"}}


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


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")),
    ids=lambda path: path.name if path.parent == PACKAGE else f"tests/{path.name}",
)
def test_every_import_is_used(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(exported(tree))
    assert sorted(imported(tree, source.splitlines()) - used) == []


def rebound_names(source: str) -> list[str]:
    """Sorted, the names that two top-level statements bind: ``def``, ``class``, import or plain assignment."""
    names = Counter()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [t for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            names.update(t.id for t in bound if isinstance(t.ctx, ast.Store))  # not the names in `_T[_M] = 0`
    return sorted(name for name, count in names.items() if count > 1)


def test_no_module_binds_a_top_level_name_twice():
    """A second ``def test_x`` replaces the first, which pytest then never collects: merging test modules
    could lose a test without any failure."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert {path.name: names for path in paths if (names := rebound_names(path.read_text()))} == {}


def test_rebinding_check_finds_a_shadowed_test_and_ignores_item_assignment():
    """Two ``def``s, a ``def`` over an import and an assignment over a class count; ``_T[_M] = 0`` does not."""
    source = (
        "from dense import noisy_state\n"
        "def test_x():\n    assert False\n"
        "def test_x():\n    pass\n"
        "def noisy_state(n):\n    return n\n"
        "class T:\n    pass\n"
        "T = 1\n"
        "_M, _N = 1, 2\n"
        "_T = [0, 0]\n"
        "_T[_M] = 0\n"
    )
    assert rebound_names(source) == ["T", "noisy_state", "test_x"]


def builtin_sum_calls(source: str) -> list[int]:
    """Lines that call the builtin ``sum`` by name; a method such as ``ndarray.sum`` is another function."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]


def test_no_module_calls_builtin_sum():
    """From Python 3.12 the builtin ``sum`` of floats is compensated, so its bits differ from 3.10 and 3.11's
    left-to-right sum that the package's float arithmetic matches to numpy; write the sum out instead."""
    assert builtin_sum_calls("total = sum(values) + x.sum() + np.sum(y)\n") == [1]
    calls = {path.name: builtin_sum_calls(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in calls.items() if lines} == {}


def truncating_writes(source: str) -> list[tuple[str, int]]:
    """(enclosing top-level name, line) of each ``.write_text(``, ``.write_bytes(``, ``O_TRUNC`` and
    ``open``/``.open`` call with a literal mode containing ``w``.  Each truncates its file to zero when it
    opens it, except ``open`` of a file descriptor, which is how the one writer wraps its own."""
    sites = []
    for statement in ast.parse(source).body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Attribute) and node.attr == "O_TRUNC":
                sites.append((getattr(statement, "name", ""), node.lineno))
            if not isinstance(node, ast.Call):
                continue
            name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[:2]  # open(p, m), p.open(m)
            writes = name == "open" and any(
                isinstance(m, ast.Constant) and isinstance(m.value, str) and "w" in m.value for m in modes
            )
            if writes or (isinstance(node.func, ast.Attribute) and name in ("write_text", "write_bytes")):
                sites.append((getattr(statement, "name", ""), node.lineno))
    return sites


def test_only_the_one_writer_opens_files_for_writing():
    """Output files are rewritten in place by ``behavior._overwrite`` and cut to length; a truncating open
    elsewhere would bring back the slow open of an existing file that the writer avoids."""
    probe = (
        "def f(p, q):\n"
        "    p.write_text('x'); q.write_bytes(b'')\n"
        "    open(p, 'w'); open(p); open(p, mode='wb'); p.open('w'); p.open(); io.open(p, 'r')\n"
        "    os.open(p, os.O_WRONLY | os.O_TRUNC)\n"
        "g = Path('x').read_text()\n"
    )
    assert truncating_writes(probe) == [("f", 2), ("f", 2), ("f", 3), ("f", 3), ("f", 3), ("f", 4)]
    sites = {path.name: truncating_writes(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    owners = {name: {owner for owner, _ in found} for name, found in sites.items() if found}
    assert owners == {"behavior.py": {"_overwrite"}}


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
    """A module attribute, a member or dataclass field of a class the module defines, a parameter of one of its
    functions, or a builtin.  A field set in ``__post_init__`` has no class attribute, so ``dir`` misses it."""
    if hasattr(module, name) or hasattr(builtins, name):
        return True
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, type) and (name in dir(value) or name in getattr(value, "__dataclass_fields__", {})):
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


def layout_gaps(modules: set[str], tests: set[str]) -> tuple[set[str], set[str]]:
    """(missing, extra): the test module names that ``modules`` and ``CROSS_CUTTING`` call for and ``tests``
    lacks, and the names in ``tests`` that nothing calls for.  ``noisybell.<m>`` calls for ``test_<m>``, or for
    the ``TESTED_IN[m]`` modules."""
    expected = set().union(*(TESTED_IN.get(module, {module}) for module in modules)) | CROSS_CUTTING
    return expected - tests, tests - expected


def test_every_module_has_its_test_modules():
    """``noisybell.<m>`` is tested in ``tests/test_<m>.py``, or in the ``TESTED_IN[m]`` modules, and every other
    test module is cross-cutting.

    So a merged or renamed module cannot leave its tests behind under a name that no module calls for.
    """
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    tests = {path.stem.removeprefix("test_") for path in Path(__file__).parent.glob("test_*.py")}
    assert layout_gaps(modules, tests) == (set(), set())


def test_layout_check_flags_a_leftover_and_a_missing_test_module():
    tests = {"states", "chsh", "sequential", "scan", "stale"} | CROSS_CUTTING
    assert layout_gaps({"family", "scan", "behavior"}, tests) == ({"oracle", "behavior"}, {"stale"})
