"""Benchmark runner for gspin.

    python3 perfbench/run.py --workload factor-stream --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; gspin is imported from ``src/``.
One process, one client, closed loop: each op starts when the previous op
and its output check are done.  Only the call into gspin is timed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each op of
a fixed list twice, plain and under the tracer, and prints the per-layer
metrics and the tracing overhead.  The last line of stdout is one
JSON object; the exit code is 0 only if every op passed its check.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)
# nothing is written under src/; import_gspin also keeps bytecode from being read
sys.dont_write_bytecode = True

import tracer  # noqa: E402
import workloads  # noqa: E402

# the standard-library modules gspin imports, loaded once before any timed
# set-up so that every set-up compiles the same code: gspin's own sources
STDLIB_DEPS = ("argparse", "dataclasses", "enum", "fractions", "itertools", "json",
               "random", "typing")
MODULES = ("exactlin", "characters", "dualgroups", "params", "endoscopy", "weyl",
           "restriction", "involutions", "scenario", "selftest", "cli")
SETUP_REPEATS = 5
MIN_OPS = 3
WORKLOADS = {
    "factor-stream": lambda gs, seed: workloads.FactorStream(gs, seed),
    "scenario-run": lambda gs, seed: workloads.ScenarioRun(gs, seed, OUT_DIR),
    "selftest-seeds": lambda gs, seed: workloads.SelftestSeeds(gs, seed),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed.  Workloads raise
    RuntimeError for a warm-up op that fails, with the same effect."""


def import_gspin() -> types.SimpleNamespace:
    """A fresh import of every gspin module from this checkout's ``src/``,
    compiled from source whatever ``__pycache__`` the checkout holds: the
    bytecode cache is looked up in an empty directory."""
    if not os.path.isfile(os.path.join(SRC, "gspin", "__init__.py")):
        raise BenchError(f"no gspin sources under {SRC}")
    for name in STDLIB_DEPS:
        importlib.import_module(name)
    for name in [m for m in sys.modules if m == "gspin" or m.startswith("gspin.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    saved_prefix = sys.pycache_prefix
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as empty:
        sys.pycache_prefix = empty
        try:
            gs = types.SimpleNamespace(
                **{m: importlib.import_module(f"gspin.{m}") for m in MODULES}
            )
        finally:
            sys.pycache_prefix = saved_prefix
    if not os.path.abspath(gs.cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"gspin was imported from {gs.cli.__file__}, not {SRC}")
    return gs


def setup(workload: str, seed: int):
    """Import, generate the inputs and warm up, ``SETUP_REPEATS`` times; the
    median set-up time and the last workload object."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = WORKLOADS[workload](import_gspin(), seed)
        wl.warm_up()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), wl


def run_op(make_op, trc: tracer.Tracer | None = None) -> tuple[float | None, bool, str]:
    """(seconds inside gspin or None, passed, error) for one op.

    ``make_op`` builds the op from its generated inputs, untimed; gspin
    refusing the inputs there fails the op without a latency sample.  With a
    tracer, spans are recorded for the timed call only."""
    try:
        op = make_op()
    except Exception as err:  # a refused input is a failed op
        return None, False, f"inputs refused: {type(err).__name__}: {err}"
    t0 = time.perf_counter()
    try:
        if trc is not None:
            trc.active = True
        result = op.run()
    except Exception as err:  # a raised or refused op is a failed op
        return time.perf_counter() - t0, False, f"{op.kind}: {type(err).__name__}: {err}"
    finally:
        if trc is not None:
            trc.active = False
    elapsed = time.perf_counter() - t0
    try:
        ok = op.check(result)
    except Exception as err:  # a malformed result fails its check
        return elapsed, False, f"{op.kind}: check raised {type(err).__name__}: {err}"
    return elapsed, ok, "" if ok else f"{op.kind}: wrong answer"


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0

    def add(self, label: str, elapsed: float | None, ok: bool, error: str):
        self.attempted += 1
        if elapsed is not None:
            self.latencies.append(elapsed)
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"op {label} failed: {error}", file=sys.stderr)

    def run(self, wl, i: int, trc: tracer.Tracer | None = None):
        self.add(str(i), *run_op(lambda: wl.op(i), trc))


def measure(wl, seconds: float) -> Tally:
    tally = Tally()
    deadline = time.perf_counter() + seconds
    while tally.attempted < MIN_OPS or time.perf_counter() < deadline:
        tally.run(wl, tally.attempted)
    return tally


def tail_quantile(samples: int) -> float:
    """The highest quantile up to 0.9 with at least ten samples beyond it;
    the median when there are fewer than twenty samples."""
    return max(0.5, min(0.9, 1 - 10 / samples))


def interquartile_mean(ordered: list[float]) -> float:
    """Mean of the samples between the first and the third quartile: the
    typical op, like the median, but it moves in proportion when part of a
    run is slower, where the median can jump between two kinds of op."""
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def percentile(ordered: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks of an ordered list."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setup_s, wl = setup(workload, seed)
    tally = measure(wl, seconds)
    ops, lat = tally.attempted, tally.latencies
    if len(lat) < 2:
        raise BenchError(f"{tally.failed} of {ops} ops failed before gspin ran them")
    ms = sorted(1000 * x for x in lat)
    q = tail_quantile(len(ms))
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((ops - tally.failed) / sum(lat), "1/s"),
        "latency_ms_iqm": (interquartile_mean(ms), "ms"),
        "latency_ms_tail": (percentile(ms, q), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{workload} seed={seed}: {ops} ops, {len(lat)} latency samples,"
          f" tail = p{100 * q:.1f}, failed_frac={tally.failed / ops:.4f}")
    return {
        "correct": tally.failed == 0,
        "attempted": ops,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(workload: str, seed: int, seconds: float) -> dict:
    """Each op of a fixed list runs once plain and once traced, in turn, the
    order alternating from op to op so that drift does not bias the ratio."""
    _setup_s, wl = setup(workload, seed)
    ops = max(MIN_OPS, math.ceil(seconds / (2 * wl.nominal_op_s)))
    gs = wl.gs
    before = tracer.binding_snapshot(gs)
    trc = tracer.Tracer(gs)
    plain, under = Tally(), Tally()
    for i in range(ops):
        for with_tracer in (i % 2 == 1, i % 2 == 0):
            if with_tracer:
                trc.op_id = i
                trc.install()
                try:
                    under.run(wl, i, trc)
                finally:
                    trc.restore()
            else:
                plain.run(wl, i)
    restored = tracer.binding_snapshot(gs) == before
    if not restored:
        print("tracer left a wrapper in place", file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    trc.write(os.path.join(OUT_DIR, f"trace-{workload}-{seed}.jsonl"))
    failed = plain.failed + under.failed
    print(f"{workload} seed={seed}: {ops} ops per pass, plain {sum(plain.latencies):.3f} s,"
          f" traced {sum(under.latencies):.3f} s, {len(trc.spans)} spans,"
          f" failed_frac={failed / (2 * ops):.4f}")
    return {
        "correct": failed == 0 and restored,
        "attempted": 2 * ops,
        "failed": failed,
        "metrics": trc.metrics(sum(under.latencies), sum(plain.latencies)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = traced if args.trace else end_to_end
    try:
        result = run(args.workload, args.seed, args.seconds)
    except (BenchError, ImportError, OSError, RuntimeError) as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
