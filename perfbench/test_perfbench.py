"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the root of a source checkout.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def gs():
    return run.import_gspin()


def test_end_to_end_reports_every_benchmark_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        wanted = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    result = run.end_to_end("factor-stream", 3, 0.0)
    assert result["correct"] and result["attempted"] == run.MIN_OPS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_interquartile_mean_leaves_out_each_outer_quarter():
    assert run.interquartile_mean([1.0, 2.0, 3.0, 4.0, 100.0, 200.0, 300.0, 400.0]) == 76.75
    assert run.interquartile_mean([5.0, 7.0]) == 6.0


def test_tail_quantile_keeps_ten_samples_beyond_it():
    assert run.tail_quantile(10) == 0.5
    assert run.tail_quantile(90) == 1 - 10 / 90
    assert run.tail_quantile(400) == 0.9
    assert run.percentile([1.0, 2.0, 3.0], 0.5) == 2.0


def test_generators_are_deterministic_per_seed():
    for i in range(60):
        assert workloads.factor_input(7, i) == workloads.factor_input(7, i)
    assert [workloads.factor_input(7, i) for i in range(10)] != [
        workloads.factor_input(8, i) for i in range(10)
    ]
    assert workloads.scenario_input(7, 3) == workloads.scenario_input(7, 3)
    assert workloads.scenario_input(7, 3) != workloads.scenario_input(8, 3)
    pool = list(range(64))
    picks = [workloads.selftest_input(7, i, pool) for i in range(20)]
    assert picks == [workloads.selftest_input(7, i, pool) for i in range(20)]


def test_factor_mix_is_exact_per_block():
    block = workloads.FACTOR_BLOCK
    specs = [workloads._schedule(3, block, i) for i in range(2 * len(block))]
    for part in (specs[: len(block)], specs[len(block):]):
        assert Counter(part) == Counter(block)


def test_every_selftest_pool_seed_has_a_digest():
    digests = workloads.load_digests()
    assert sorted(digests) == list(range(workloads.SELFTEST_SEEDS))
    assert all(len(d) == 64 for d in digests.values())


def test_tracer_restores_every_binding(gs):
    before = tracer.binding_snapshot(gs)
    original_kernel = gs.involutions.kernel
    trc = tracer.Tracer(gs)
    trc.install()
    try:
        assert gs.involutions.kernel is not original_kernel
        assert gs.endoscopy.kernel is gs.exactlin.kernel
        assert tracer.binding_snapshot(gs) != before
    finally:
        trc.restore()
    assert gs.involutions.kernel is original_kernel
    assert tracer.binding_snapshot(gs) == before


def test_matmul_span_is_only_for_matrix_products(gs):
    m = gs.exactlin.ExactMatrix([[1, 2], [3, 4]])
    trc = tracer.Tracer(gs)
    trc.install()
    trc.active = True
    try:
        assert m * m == gs.exactlin.ExactMatrix([[7, 10], [15, 22]])
        assert m * (1, 1) == (3, 7)
    finally:
        trc.active = False
        trc.restore()
    assert [rec[0] for rec in trc.spans] == ["exactlin.matmul"]


def test_self_times_fit_in_the_traced_wall_time(gs):
    wl = workloads.FactorStream(gs, 5)
    tally = run.Tally()
    trc = tracer.Tracer(gs)
    trc.install()
    try:
        for i in range(6):
            tally.run(wl, i, trc)
    finally:
        trc.restore()
    assert tally.failed == 0
    assert trc.spans
    wall = sum(tally.latencies)
    selfs = trc.self_times()
    assert all(s >= 0 for s in selfs)
    assert sum(selfs) <= wall
    metrics = trc.metrics(wall, wall)
    assert set(metrics) == set(tracer.metric_units(tracer.check_names(gs.selftest)))
    assert metrics["involutions.factor.calls"]["value"] == 6


def test_corrupted_selftest_is_counted_as_failed(gs):
    # check_involutions ignores its corrupt flag, so the hooks that do fire
    # stand in for it
    digest = workloads.load_digests()[0]
    tally = run.Tally()
    for corrupt in (None, "kernel_rank", "endoscopy_catalog"):
        op = workloads.SelftestOp(gs, 0, digest, corrupt=corrupt)
        tally.add(str(corrupt), *run.run_op(lambda: op))
    assert (tally.attempted, tally.failed) == (3, 2)


def test_misstated_similitude_factor_is_counted_as_failed(gs):
    kind, gram, g, nu = workloads.factor_input(11, 0, ("d4", 0, 2))
    tally = run.Tally()
    tally.add("true nu", *run.run_op(lambda: workloads.FactorOp(gs, kind, gram, g, nu)))
    tally.add("wrong nu", *run.run_op(lambda: workloads.FactorOp(gs, kind, gram, g, nu + 1)))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert len(tally.latencies) == 1


def test_scenario_check_catches_a_wrong_answer(gs, tmp_path):
    doc, expected, cli_seed = workloads.scenario_input(2, 0)
    path, out = str(tmp_path / "s.json"), str(tmp_path / "r.json")
    op = workloads.ScenarioOp(gs, "plain", path, out, doc, expected, cli_seed)
    result = op.run()
    assert op.check(result)
    name = next(iter(expected["multiplicity"]))
    expected["multiplicity"][name] = 1 - expected["multiplicity"][name]
    assert not op.check(result)


def test_factor_inputs_are_similitudes():
    for i in range(40):
        kind, gram, g, nu = workloads.factor_input(4, i)
        n = len(gram)
        gt = [list(r) for r in zip(*g)]
        lhs = workloads._matmul(workloads._matmul(gt, gram), g)
        assert lhs == [[nu * x for x in row] for row in gram]
        square = nu.denominator == 1 and workloads._is_square(nu.numerator)
        assert square == kind.startswith("d"), (kind, nu, n)
