"""Reports must stay byte-identical: the selftest report against the digests
recorded for the benchmark's selftest-seeds workload, and the demo scenario's
stdout and --out file against hashes recorded before any refactoring."""

import hashlib
import json
from pathlib import Path

import pytest

from gspin.cli import main
from gspin.selftest import run_selftest

ROOT = Path(__file__).resolve().parents[1]
DEMO_STDOUT_SHA256 = "7dbef4063aadefd0f9116673372e4ad17892ac74985047eb1155b0f582a7ccb8"
DEMO_OUT_SHA256 = "a93806e5d9ca0f8ab4f6756bcfba52439a0f448762d76aa81a59e7d0ddb08190"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed", [0, 42])
def test_selftest_report_matches_recorded_digest(seed):
    with open(ROOT / "perfbench" / "selftest_digests.json") as fh:
        digests = json.load(fh)["digests"]
    ok, lines = run_selftest(seed)
    assert ok
    assert _sha256("\n".join(lines) + "\n") == digests[str(seed)]


def test_demo_scenario_report_bytes(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(
        ["run", str(ROOT / "demos" / "scenario_saito_kurokawa.json"), "--seed", "0", "--out", str(out_path)]
    )
    assert code == 0
    assert _sha256(capsys.readouterr().out) == DEMO_STDOUT_SHA256
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == DEMO_OUT_SHA256
