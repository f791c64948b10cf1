"""Reports must stay byte-identical: the selftest report against the digests
recorded for the benchmark's selftest-seeds workload, and the demo scenario's
stdout and --out file against hashes recorded before any refactoring."""

import hashlib
import json
from pathlib import Path

import pytest

from gspin.cli import main
from gspin.dualgroups import realize_shape
from gspin.restriction import project_parameter
from gspin.selftest import run_selftest

ROOT = Path(__file__).resolve().parents[1]
DEMO_STDOUT_SHA256 = "7dbef4063aadefd0f9116673372e4ad17892ac74985047eb1155b0f582a7ccb8"
DEMO_OUT_SHA256 = "a93806e5d9ca0f8ab4f6756bcfba52439a0f448762d76aa81a59e7d0ddb08190"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# the projection and diagram checks draw seeded samples, so one seed covers
# little of them
@pytest.mark.parametrize("seed", [*range(8), 42])
def test_selftest_report_matches_recorded_digest(seed):
    with open(ROOT / "perfbench" / "selftest_digests.json") as fh:
        digests = json.load(fh)["digests"]
    ok, lines = run_selftest(seed)
    assert ok
    assert _sha256("\n".join(lines) + "\n") == digests[str(seed)]


def test_restriction_constituents_of_every_shape(tmp_path, capsys):
    shapes = ("irreducible", "two_two_generic", "two_two_dihedral", "principal_series")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"requests": [{"op": "restriction", "shape": s} for s in shapes]}))
    out_path = tmp_path / "report.json"
    assert main(["run", str(scenario), "--out", str(out_path)]) == 0
    capsys.readouterr()
    results = json.loads(out_path.read_text())["results"]
    assert [r["constituents"] for r in results] == [
        {"packet": [[]]},
        {"+": [[]], "-": [["p0"]]},
        {"+": [[], ["p0", "p1"]], "-": [["p0"], ["p1"]]},
        {"packet": [[]]},
    ]


def test_demo_scenario_report_bytes(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(
        ["run", str(ROOT / "demos" / "scenario_saito_kurokawa.json"), "--seed", "0", "--out", str(out_path)]
    )
    assert code == 0
    assert _sha256(capsys.readouterr().out) == DEMO_STDOUT_SHA256
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == DEMO_OUT_SHA256


ALL_SHAPES_TWICE = {"requests": [
    {"op": "restriction", "shape": s}
    for s in ("irreducible", "two_two_generic", "two_two_dihedral", "principal_series") * 2
]}


@pytest.mark.parametrize("scenario", ["demo", "all-shapes-twice"])
def test_cold_and_warm_caches_print_the_same_bytes(tmp_path, capsys, scenario):
    path = ROOT / "demos" / "scenario_saito_kurokawa.json"
    if scenario != "demo":
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(ALL_SHAPES_TWICE))
    project_parameter.cache_clear()
    realize_shape.cache_clear()
    runs = []
    for warmth in ("cold", "warm"):
        out_path = tmp_path / f"{warmth}.json"
        assert main(["run", str(path), "--seed", "0", "--out", str(out_path)]) == 0
        runs.append((capsys.readouterr().out, out_path.read_bytes()))
    assert project_parameter.cache_info().currsize > 0
    assert runs[0] == runs[1]
