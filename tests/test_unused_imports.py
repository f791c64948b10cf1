"""Every name a module of the package imports is used in that module, every
module-level private name of the package is read somewhere in it, and no
function imports from a module its file already imports from at module level.

The package's module graph is acyclic (an import inside a function counts as
an edge), no function imports anything at all, and no module imports a
`_`-prefixed name from another package module.

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


# ---------------------------------------------------------------------------
# the module graph: acyclic, no import inside a function, no private name
# taken from another module


def _package_imports(node: ast.Import | ast.ImportFrom, modules: set[str]) -> list[tuple[str, str | None]]:
    """(package module, imported name) for each name an import statement
    reads from the package: `from .m import a` and `from gspin.m import a`
    give (m, a), `from . import m` and `import gspin.m` give (m, None), and a
    name of the package itself, such as `__version__`, comes from __init__."""
    if isinstance(node, ast.Import):
        parts = [alias.name.split(".") for alias in node.names]
        return [(p[1] if len(p) > 1 else "__init__", None) for p in parts if p[0] == "gspin"]
    if node.level == 1:
        module = node.module
    elif node.level == 0 and node.module and node.module.split(".")[0] == "gspin":
        module = node.module.partition(".")[2]
    else:
        return []
    if module:
        return [(module.split(".")[0], alias.name) for alias in node.names]
    return [(a.name, None) if a.name in modules else ("__init__", a.name) for a in node.names]


def _imports(paths: list[Path]):
    """(file, import node, package module, imported name) for every package
    import anywhere in the files, inside functions too."""
    modules = {path.stem for path in paths}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for module, name in _package_imports(node, modules):
                    yield path, node, module, name


def _modules_on_a_cycle(paths: list[Path]) -> list[str]:
    """The modules from which an import path leads back to themselves."""
    edges = {path.stem: set() for path in paths}
    for path, _node, module, _name in _imports(paths):
        edges[path.stem].add(module)

    def reachable(start: str) -> set[str]:
        seen, todo = set(), list(edges[start])
        while todo:
            m = todo.pop()
            if m not in seen:
                seen.add(m)
                todo += edges.get(m, ())
        return seen

    return sorted(m for m in edges if m in reachable(m))


def test_the_module_graph_is_acyclic():
    assert _modules_on_a_cycle(sorted(SRC.glob("*.py"))) == []


def test_an_import_cycle_is_found(tmp_path):
    files = {
        "__init__.py": "__version__ = '1'\n",
        "a.py": "from . import __version__\nfrom .b import f\n",
        "b.py": "def f():\n    from gspin.c import g\n    return g\n",
        "c.py": "import gspin.a\n",
        "d.py": "from .a import f\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    paths = sorted(tmp_path.glob("*.py"))
    assert _modules_on_a_cycle(paths) == ["a", "b", "c"]
    (tmp_path / "c.py").write_text("import math\n")
    assert _modules_on_a_cycle(paths) == []


def _imports_in_functions(path: Path) -> list[str]:
    """Imports inside a function: every module imports at its top."""
    tree = ast.parse(path.read_text())
    found = {
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    return [f"{path.name}:{line}" for line in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_imports(path):
    assert _imports_in_functions(path) == []


def test_an_import_inside_a_function_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import math\n"
        "def f():\n"
        "    import itertools\n"
        "    def g():\n"
        "        from .other import h\n"
        "    return math, itertools, g\n"
        "class C:\n"
        "    def m(self):\n"
        "        from math import gcd\n"
    )
    assert _imports_in_functions(module) == ["module.py:3", "module.py:5", "module.py:9"]


def _private_imports(paths: list[Path]) -> list[str]:
    """`_`-prefixed names one package module imports from another; dunders
    such as `__version__` are public."""
    return [
        f"{path.name}:{node.lineno}: {name}"
        for path, node, module, name in _imports(paths)
        if name and name.startswith("_") and not name.startswith("__") and module != path.stem
    ]


def test_no_module_imports_a_private_name():
    assert _private_imports(sorted(SRC.glob("*.py"))) == []


def test_an_imported_private_name_is_found(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("_LIMIT = 3\n__version__ = '1'\ndef f():\n    return _LIMIT\n")
    b.write_text(
        "from .a import _LIMIT, f\n"
        "from . import __version__\n"
        "from gspin.a import __version__ as v\n"
        "def g():\n"
        "    from gspin.a import _LIMIT as limit\n"
        "    return _LIMIT, f, v, limit\n"
    )
    assert _private_imports([a, b]) == ["b.py:1: _LIMIT", "b.py:5: _LIMIT"]
