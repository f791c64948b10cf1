"""Every name a module of the package imports is used in that module, every
module-level private name of the package is read somewhere in it, no
function imports from a module its file already imports from at module level,
and no function builds a frame with `ExactMatrix.from_columns`.

A name kept on purpose, for instance one that another module binds through
this one, carries `# noqa: F401` on the line that imports it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gspin"


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names inside string annotations such as -> "ExactMatrix"
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path) == []


def test_an_unused_import_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from fractions import Fraction  # noqa: F401\n"
        "from typing import Sequence\n"
        "def f(x: 'Sequence') -> int:\n"
        "    return os.getpid()\n"
    )
    assert _unused_imports(module) == ["module.py:2: sys"]


def _reads(tree: ast.AST) -> list[str]:
    """Names read in the tree: loaded names, attributes, imported names."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out += [alias.name for alias in node.names]
    return out


def _dead_private_names(paths: list[Path]) -> list[str]:
    """Module-level `def _x`, `class _X` and `_X = ...` that no module reads
    outside the definition itself."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    reads = [name for tree in trees.values() for name in _reads(tree)]
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names, inside = [node.name], _reads(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                inside = _reads(node.value) if node.value else []
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    if reads.count(name) == inside.count(name):
                        dead.append(f"{path.name}:{node.lineno}: {name}")
    return dead


def test_every_private_name_is_read():
    assert _dead_private_names(sorted(SRC.glob("*.py"))) == []


def test_a_dead_private_name_is_found(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(
        "_LIMIT = 3\n"
        "_SPARE = 4\n"
        "def _helper(n):\n"
        "    return _helper(n - 1) if n else _LIMIT\n"
        "class _Unused:\n"
        "    pass\n"
    )
    b.write_text("from a import _helper\nprint(_helper(2))\n")
    assert _dead_private_names([a]) == ["a.py:2: _SPARE", "a.py:3: _helper", "a.py:5: _Unused"]
    assert _dead_private_names([a, b]) == ["a.py:2: _SPARE", "a.py:5: _Unused"]


def _sources(node: ast.Import | ast.ImportFrom) -> list[tuple[int, str | None]]:
    """(relative level, module) of each module an import reads from."""
    if isinstance(node, ast.ImportFrom):
        return [(node.level, node.module)]
    return [(0, alias.name) for alias in node.names]


def _function_imports_of_module_imports(path: Path) -> list[str]:
    """Imports inside a function from a module that the file's module-level
    imports already read from: they belong with those."""
    tree = ast.parse(path.read_text())
    top = {src for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom)) for src in _sources(node)}
    found = {
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and top.intersection(_sources(node))
    }
    return [f"{path.name}:{line}" for line in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_repeats_a_module_level_import_source(path):
    assert _function_imports_of_module_imports(path) == []


def test_a_function_import_of_a_module_level_source_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from math import gcd\n"
        "from .pkg import a\n"
        "def f():\n"
        "    import math\n"
        "    from .pkg import b\n"
        "    from .other import c  # another module: breaks a cycle, say\n"
        "    import itertools\n"
        "    def g():\n"
        "        from math import lcm\n"
        "    return gcd, math, a, b, c, itertools, g\n"
    )
    assert _function_imports_of_module_imports(module) == ["module.py:4", "module.py:5", "module.py:9"]


def _from_columns_in_functions(path: Path) -> list[str]:
    """Calls of `from_columns` inside a function or lambda: a set of vectors
    is a frame throughout, so only module-level constant bases are built
    from lists of columns."""
    tree = ast.parse(path.read_text())
    found = {
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "from_columns"
    }
    return [f"{path.name}:{line}" for line in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_from_columns_builds_only_module_level_constants(path):
    assert _from_columns_in_functions(path) == []


def test_a_from_columns_call_in_a_function_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from gspin.exactlin import ExactMatrix\n"
        "BASIS = ExactMatrix.from_columns([[1, 0], [0, 1]])\n"
        "def f(vectors):\n"
        "    return ExactMatrix.from_columns([list(v) for v in vectors])\n"
        "g = lambda vs: ExactMatrix.from_columns(vs)\n"
    )
    assert _from_columns_in_functions(module) == ["module.py:4", "module.py:5"]
