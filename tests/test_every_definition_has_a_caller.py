"""Every top-level function, class and constant of the package, every
public method of its top-level classes and every annotated field of their
bodies, is read somewhere in the package outside its own definition: a
top-level name as a name, an attribute or an imported name, a method or a
field as an attribute (a bare name that happens to share the method's or
the field's name does not read it).

Code that only tests call is code to delete.  A name kept on purpose for a
reader outside the package is listed in KEPT with its reason, which starts
with the path of the file that reads it; the list holds exactly the names
the scan finds, so an entry goes once the name gains a caller or is deleted,
and the name must occur in the file its reason names, so a reason cannot
outlive its reader."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gspin"

KEPT = {
    "solve": "perfbench/tracer.py binds it",
    "orthogonal_string_decomposition": "perfbench/tracer.py binds it",
    "restrict_gso4": "perfbench/tracer.py binds it",
    "EndoscopicDatum.h_description": "demos/03_endoscopic_catalog.py prints it",
    "boxtimes": "ROADMAP.md item 2 builds on it",
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


def _attributes(tree: ast.AST) -> list[str]:
    """Attribute names read in the tree: the only way to call a method."""
    return [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]


def _definitions(tree: ast.Module):
    """(qualified name, name, line, reads inside the definition, reader) of
    each top-level def, class and assigned name, read by `_reads`, and of
    each public method and each annotated field of a top-level class, read
    by `_attributes`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, _reads(node), _reads
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            inside = _reads(node.value) if node.value else []
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, t.id, node.lineno, inside, _reads
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, _attributes(item), _attributes
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                    yield f"{node.name}.{name}", name, item.lineno, _attributes(item), _attributes


def _uncalled(paths: list[Path]) -> dict[str, str]:
    """Qualified name -> file:line of each definition that no module reads
    outside the definition itself."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    reads = {
        reader: [name for tree in trees.values() for name in reader(tree)]
        for reader in (_reads, _attributes)
    }
    return {
        qualified: f"{path.name}:{line}"
        for path, tree in trees.items()
        for qualified, name, line, inside, reader in _definitions(tree)
        if not name.startswith("__") and reads[reader].count(name) == inside.count(name)
    }


def test_every_definition_has_a_caller_or_a_reason():
    uncalled = _uncalled(sorted(SRC.glob("*.py")))
    assert {name: uncalled[name] for name in uncalled.keys() - KEPT} == {}
    assert sorted(KEPT.keys() - uncalled.keys()) == []


def test_each_kept_name_occurs_in_the_file_its_reason_names():
    for qualified, reason in KEPT.items():
        name = qualified.split(".")[-1]
        reader = ROOT / reason.split()[0]
        assert re.search(rf"\b{name}\b", reader.read_text()), (qualified, reason)


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
    # b's own `spare` is a bare name: it does not call Box.spare
    b.write_text("from a import count, Box\nspare = 2\nprint(count(2), Box(), spare)\n")
    assert sorted(_uncalled([a])) == ["Box", "Box.spare", "SPARE", "count"]
    assert sorted(_uncalled([a, b])) == ["Box.spare", "SPARE"]


def test_an_unread_field_is_found(tmp_path):
    a = tmp_path / "a.py"
    a.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Point:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    label: str = ''\n"
        "y = 3\n"
        "print(Point(1).x, Point(2, y=y, label='p'))\n"
    )
    # set by keyword and shadowed by a bare name, y and label are never read
    assert sorted(_uncalled([a])) == ["Point.label", "Point.y"]
