"""Every narrative script under demos/ runs to completion and prints the
recorded output (the demos are seeded, so their stdout is deterministic)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout
STDOUT_SHA256 = {
    "01_exact_linear_algebra.py": "cc4f10c3180e5baf86b6be908989819104f19b1aaeb40489b68b22ee68afc37c",
    "02_dual_groups_and_twist.py": "e9a4595a5db22d60bbed632fc9cc78578a72559daed25e4b84a2898e52ed1aeb",
    "03_endoscopic_catalog.py": "50a3b2c42ff69ad4e616a0ef33f8c1651af145a59f3f677729a4a3fc77556710",
    "04_classification_and_multiplicity.py": "f752810a7a8bc16c316212b277696696e061a6b5f64a49a10dc6d271bfa2173d",
    "05_twisted_weyl_bookkeeping.py": "a63a0ea7154a3e63ac55b80e82971ac0c724a1f4af8aeec0bc9ce599f1eb3b52",
    "06_packet_restriction.py": "383411ce7c9a497ac557112f6540950c407cb021a357acd81cbc544b51ba406d",
    "07_involution_factorization.py": "c2cbd111ac3d1e9c48f22e3c3615f48cb9f8d57a1c0a9e57f1afe095ab18f039",
}


def test_all_demos_found():
    assert len(DEMOS) == 7
    assert sorted(p.name for p in DEMOS) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == STDOUT_SHA256[script.name]
