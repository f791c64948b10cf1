"""Only exactlin writes an ExactMatrix's storage.

`ExactMatrix.__eq__` and `__hash__` compare the stored integer numerators and
denominator, so keeping them canonical is exactlin's job alone.  `_raw`,
which builds a matrix without normalising it, appears in no other module.
The storage itself (`_num`, `_den`) and the normalising `_make` appear
outside exactlin only in the definitions of EXEMPT, each an integer fast
path on the restriction-diagram checks, which call it on every sample.  Like
KEPT in test_every_definition_has_a_caller.py, EXEMPT holds exactly what the
scan finds, so an entry goes once its definition is rewritten on public
operations."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gspin"
STORAGE = {"_num", "_den", "_make"}

# Per warm call, today's path against the same function written with public
# operations (300 inputs, median of 5-9 passes, 2-core host), and the calls
# one verify-endoscopy suite makes.
EXEMPT = {
    ("dualgroups", "embed_pair"): "3-6 us against 22-39 us, 20 calls",
    ("dualgroups", "project_to_so5"): "55-92 us against 150-260 us, 41 calls",
    ("dualgroups", "embed_so4_block"): "11-19 us against 100-180 us, 20 calls",
    ("dualgroups", "sample_gsp4"): "73-80 us against 343-364 us, 20 calls",
    ("dualgroups", "_nonzeros"): "the sparse constant factors of project_to_so5 and embed_so4_block",
    ("dualgroups", "_split_product"): "a step of project_to_so5 and embed_so4_block",
    ("dualgroups", "_complement_block"): "a step of project_to_so5 and embed_so4_block",
    ("dualgroups", "_NILPOTENT_DEN"): "the nilpotent basis sample_gsp4 combines on every draw",
    ("dualgroups", "_NILPOTENT_NUMS"): "the nilpotent basis sample_gsp4 combines on every draw",
}


def _storage_uses(paths: list[Path]) -> dict[tuple[str, str], set[str]]:
    """(module, top-level definition) -> the storage names it uses, as an
    attribute or as a string (getattr)."""
    out = {}
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)] or ["<module>"]
            else:
                names = ["<module>"]
            used = {
                n.attr if isinstance(n, ast.Attribute) else n.value
                for n in ast.walk(node)
                if (isinstance(n, ast.Attribute) and n.attr in STORAGE | {"_raw"})
                or (isinstance(n, ast.Constant) and n.value in STORAGE | {"_raw"})
            }
            for name in names:
                if used:
                    out.setdefault((path.stem, name), set()).update(used)
    return out


def test_only_exactlin_and_the_exempt_fast_paths_touch_matrix_storage():
    outside = {k: v for k, v in _storage_uses(sorted(SRC.glob("*.py"))).items() if k[0] != "exactlin"}
    assert {k: v for k, v in outside.items() if "_raw" in v} == {}
    assert sorted(outside.keys() - EXEMPT.keys()) == []
    assert sorted(EXEMPT.keys() - outside.keys()) == []


def test_a_storage_use_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from .exactlin import ExactMatrix\n"
        "SCALE = lambda m: ExactMatrix._raw(m._num, 2 * m._den, m.cols)\n"
        "def peek(m):\n"
        "    return getattr(m, '_num')\n"
        "class Box:\n"
        "    def make(self, num):\n"
        "        return ExactMatrix._make(num, 1, 2)\n"
        "def clean(m):\n"
        "    return m.entries()\n"
    )
    assert _storage_uses([path]) == {
        ("module", "SCALE"): {"_raw", "_num", "_den"},
        ("module", "peek"): {"_num"},
        ("module", "Box"): {"_make"},
    }
