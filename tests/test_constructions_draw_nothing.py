"""The modules whose answers are constructions import no `random`: exactlin,
involutions, params and restriction.  Only the seeded samplers and checks
draw: dualgroups through an rng argument, endoscopy and selftest."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gspin"
CONSTRUCTIONS = ["exactlin", "involutions", "params", "restriction"]


def _imports_random(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "random" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "random":
            return True
    return False


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_construction_imports_no_random(name):
    assert not _imports_random(SRC / f"{name}.py")


def test_a_random_import_is_found(tmp_path):
    for source, found in [
        ("import os\nimport random\n", True),
        ("def f():\n    from random import Random\n", True),
        ("import os.path as random\n", False),
        ("from .random_walks import step\n", False),
    ]:
        path = tmp_path / "module.py"
        path.write_text(source)
        assert _imports_random(path) is found, source
