"""Every top-level function, class and constant of the package, and every
public method of its top-level classes, is read somewhere in the package
outside its own definition: as a name, an attribute or an imported name.

Code that only tests call is code to delete.  A name kept on purpose for a
reader outside the package is listed in KEPT with its reason; the list holds
exactly the names the scan finds, so an entry goes once the name gains a
caller or is deleted."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gspin"

KEPT = {
    "solve": "perfbench/tracer.py binds it",
    "orthogonal_string_decomposition": "perfbench/tracer.py binds it",
    "restrict_gso4": "perfbench/tracer.py binds it",
    "gso4_shape_catalog": "demo 06 and acceptance criterion 6 read it",
    "catalog": "demo 03 reads it",
    "boxtimes": "ROADMAP item 2 builds on it",
    "ExactMatrix.column": "public accessor, the counterpart of row",
    "ThetaTwist.apply_dual": "the tests' reference for endoscopy.theta_s_fixed",
}


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


def _definitions(tree: ast.Module):
    """(qualified name, name, line, reads inside the definition) of each
    top-level def, class and assigned name, and of each public method of a
    top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, _reads(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            inside = _reads(node.value) if node.value else []
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, t.id, node.lineno, inside
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, _reads(item)


def _uncalled(paths: list[Path]) -> dict[str, str]:
    """Qualified name -> file:line of each definition that no module reads
    outside the definition itself."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    reads = [name for tree in trees.values() for name in _reads(tree)]
    return {
        qualified: f"{path.name}:{line}"
        for path, tree in trees.items()
        for qualified, name, line, inside in _definitions(tree)
        if not name.startswith("__") and reads.count(name) == inside.count(name)
    }


def test_every_definition_has_a_caller_or_a_reason():
    uncalled = _uncalled(sorted(SRC.glob("*.py")))
    assert {name: uncalled[name] for name in uncalled.keys() - KEPT} == {}
    assert sorted(KEPT.keys() - uncalled.keys()) == []


def test_an_uncalled_definition_is_found(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(
        "LIMIT = 3\n"
        "SPARE = LIMIT + 1\n"
        "def count(n):\n"
        "    return count(n - 1) if n else LIMIT\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.n = 0\n"
        "    def grow(self):\n"
        "        return self.n + 1\n"
        "    def _private(self):\n"
        "        return self.grow()\n"
        "    def spare(self):\n"
        "        return self._private()\n"
    )
    b.write_text("from a import count, Box\nprint(count(2), Box())\n")
    assert sorted(_uncalled([a])) == ["Box", "Box.spare", "SPARE", "count"]
    assert sorted(_uncalled([a, b])) == ["Box.spare", "SPARE"]
