"""Record the reference SHA-256 of `gspin selftest --seed s` for each seed of
the selftest-seeds pool.

    python3 perfbench/record_digests.py [--commit SHA]

Run from the root of a source checkout.  The digests pin today's report
bytes; a change that alters the report fails selftest-seeds until they are
recorded again, which is a deliberate, reviewed step.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", default="")
    args = parser.parse_args()
    gs = run.import_gspin()
    digests = {}
    for seed in range(workloads.SELFTEST_SEEDS):
        ok, lines = gs.selftest.run_selftest(seed)
        if not ok:
            print(f"selftest seed {seed} fails; not recording", file=sys.stderr)
            return 1
        digests[str(seed)] = workloads.selftest_digest(lines)
    with open(workloads.DIGESTS_FILE, "w") as fh:
        json.dump({"commit": args.commit, "digests": digests}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
