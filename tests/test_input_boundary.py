"""The input boundary of `gspin run` and `gspin factor-involution`: bad input
exits 2 with one `input error: <path>: ...` line, never a traceback, and
exit 1 only accompanies a FAIL line."""

import copy
import importlib.util
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gspin.cli import main
from gspin.params import ArthurType
from gspin.selftest import six_type_fixtures
from test_cli import OUT_KEYS
from gspin.scenario import ScenarioError, parse_matrix, parse_rational

ROOT = Path(__file__).resolve().parents[1]
DEMO = json.loads((ROOT / "demos" / "scenario_saito_kurokawa.json").read_text())


def _run(tmp_path, capsys, doc, command="run", options=()):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code = main([command, str(path), *options])
    out, err = capsys.readouterr()
    return code, out, err


def _mutated(edit):
    doc = copy.deepcopy(DEMO)
    edit(doc)
    return doc


def _set(path, value):
    """An edit that sets doc[path[0]]...[path[-1]] = value."""
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


# one mutation of the demo per defect, with the line it must print
DEFECTS = {
    "cuspidal-without-id": (
        lambda doc: doc["cuspidals"][0].pop("id"), "cuspidals[0].id: missing"),
    "string-generators": (
        _set(["characters", "generators"], "eta0"), "characters.generators: expected a list"),
    "dict-cuspidals": (
        _set(["cuspidals"], {"pi": {}}), "cuspidals: expected a list"),
    "duplicate-cuspidal-id": (
        lambda doc: doc["cuspidals"].append(dict(doc["cuspidals"][0])),
        "cuspidals[2].id: duplicate 'pi'"),
    "duplicate-parameter-name": (
        lambda doc: doc["parameters"].append(dict(doc["parameters"][0])),
        "parameters[1].name: duplicate 'psi_sk'"),
    "unknown-top-level-key": (_set(["bogus"], 1), "bogus: unknown key"),
    "unknown-request-key": (_set(["requests", 1, "bogus"], 1), "requests[1].bogus: unknown key"),
    "alpha-on-classify": (_set(["requests", 0, "alpha"], "1"), "requests[0].alpha: unknown key"),
    "undeclared-alpha-on-membership": (
        _set(["requests", 2, "alpha"], "beta"), "requests[2].alpha: undeclared class 'beta'"),
    "alpha-on-odd-membership": (
        _set(["requests", 2, "alpha"], "1"), "requests[2].alpha: target 'gspin5' reads no square class"),
    "string-multiplicity": (
        _set(["parameters", 0, "summands", 0, 1], "x"),
        "parameters[0].summands[0][1]: expected an integer"),
    "string-N": (_set(["cuspidals", 0, "N"], "two"), "cuspidals[0].N: expected an integer"),
    "one-entry-summand": (
        _set(["parameters", 0, "summands", 0], ["pi"]), "parameters[0].summands[0]: expected 2 entries"),
    "string-local-value": (
        _set(["local_data", "psi_sk"], [["v1", {"pi": "y"}]]),
        "local_data.psi_sk[0][1].pi: expected an integer"),
    "repeated-generator": (
        _set(["characters", "generators"], [{"name": "eta0"}, {"name": "eta0"}]),
        "characters.generators[1].name: duplicate 'eta0'"),
    "sign-three": (_set(["cuspidals", 0, "sign"], 3), "cuspidals[0].sign: expected 1 or -1"),
    "class-token-one": (
        _set(["classes"], [{"token": "1", "character": "chi"}]), "classes[0].token: duplicate '1'"),
}


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_scenario_defect_is_input_error(tmp_path, capsys, name):
    edit, message = DEFECTS[name]
    code, out, err = _run(tmp_path, capsys, _mutated(edit))
    assert (code, out, err) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("command", ["run", "factor-involution"])
@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
def test_unreadable_input_file_is_input_error(tmp_path, capsys, command, kind):
    path = tmp_path
    if kind == "not-utf-8":
        path = tmp_path / "input.json"
        path.write_bytes(b'{"requests": ["\xff"]}')
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "factor-involution"])
def test_repeated_json_key_is_input_error(tmp_path, capsys, command):
    # json.loads keeps the last of two equal keys, so one of them would be
    # dropped without a word
    path = tmp_path / "input.json"
    path.write_text('{"requests": [{"op": "classify", "op": "selftest"}]}')
    assert main([command, str(path)]) == 2
    assert capsys.readouterr() == ("", "input error: duplicate key 'op'\n")


FACTOR_DOC = {"gram": [["0", "1"], ["1", "0"]], "matrix": [["2", "0"], ["0", "1"]], "similitude": "2"}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1], "document: expected an object"),
        (dict(FACTOR_DOC, extra=1), "extra: unknown key"),
        ({k: v for k, v in FACTOR_DOC.items() if k != "similitude"}, "similitude: missing"),
        (dict(FACTOR_DOC, similitude=0.1), "similitude: expected an integer or a string 'p/q'"),
        (dict(FACTOR_DOC, similitude=True), "similitude: expected an integer or a string 'p/q'"),
        (dict(FACTOR_DOC, similitude="0.1"), "similitude: expected an integer or a string 'p/q'"),
        (dict(FACTOR_DOC, similitude="2/0"), "similitude: expected an integer or a string 'p/q'"),
        (dict(FACTOR_DOC, matrix=[[[1], 0], [0, 1]]),
         "matrix[0][0]: expected an integer or a string 'p/q'"),
        (dict(FACTOR_DOC, matrix=[2, 1]), "matrix[0]: expected a list"),
        (dict(FACTOR_DOC, gram="1"), "gram: expected a list"),
        (dict(FACTOR_DOC, gram=[["0", "1"], ["1"]]), "gram: ragged rows"),
        (dict(FACTOR_DOC, gram=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]), "gram: dimension must be even"),
        (dict(FACTOR_DOC, gram=[[0, 1], [2, 0]]), "gram: the form must be symmetric of the stated dimension"),
        (dict(FACTOR_DOC, gram=[[1, 1], [1, 1]]), "gram: the form must be invertible"),
        (dict(FACTOR_DOC, gram=[], matrix=[], similitude="1"), "gram: dimension must be positive"),
        (dict(FACTOR_DOC, matrix=[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
         "matrix: expected 2 x 2 entries, the size of gram"),
        (dict(FACTOR_DOC, matrix=[[1, 0, 0], [0, 1, 0]]), "matrix: expected 2 x 2 entries, the size of gram"),
        (dict(FACTOR_DOC, similitude=3), "matrix: not an invertible similitude with the stated factor"),
        (dict(FACTOR_DOC, matrix=[[0, 1], [1, 0]], similitude=1),
         "matrix: not in the special similitude group: det != nu^n"),
    ],
    ids=["list-document", "unknown-key", "no-similitude", "float", "bool", "decimal-string",
         "zero-denominator", "list-entry", "row-not-a-list", "gram-not-a-list", "ragged",
         "odd-gram", "asymmetric-gram", "singular-gram", "empty-gram", "matrix-of-another-size",
         "non-square-matrix", "wrong-similitude-factor", "determinant-minus-one"],
)
def test_factor_involution_defect_is_input_error(tmp_path, capsys, doc, message):
    code, out, err = _run(tmp_path, capsys, doc, "factor-involution")
    assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_factor_involution_refuses_similitude_factor_zero(tmp_path, capsys):
    doc = {"gram": [[0, 1], [1, 0]], "matrix": [[0, 0], [0, 0]], "similitude": 0}
    code, out, err = _run(tmp_path, capsys, doc, "factor-involution")
    assert (code, out) == (2, "")
    assert err == "input error: matrix: not an invertible similitude with the stated factor\n"


def test_even_target_needs_its_square_class(tmp_path, capsys):
    # GSpin4^alpha reads the class 'alpha', which this scenario does not
    # declare; once declared, orthogonal summands reach its condition
    doc = {
        "characters": {"generators": [{"name": "chi0"}], "defined": {"chi": {"free": {"chi0": 1}}}},
        "cuspidals": [{"id": f"p{k}", "N": 2, "central_character": "chi", "chi": "chi", "sign": 1}
                      for k in (1, 2)],
        "parameters": [{"name": "psi", "chi": "chi", "summands": [["p1", 1], ["p2", 1]]}],
        "requests": [{"op": "membership", "parameter": "psi", "target": "gspin4a"}],
    }
    for op in ("multiplicity", "membership"):
        doc["requests"][0]["op"] = op
        code, out, err = _run(tmp_path, capsys, doc)
        assert (code, out, err) == (
            2, "", "input error: requests[0].target: 'gspin4a' reads the undeclared square class 'alpha'\n"
        )
    doc["characters"]["generators"].append({"name": "b", "order_two": True})
    doc["characters"]["defined"]["beta"] = {"torsion": ["b"]}
    doc["classes"] = [{"token": "alpha", "character": "beta"}]
    code, out, err = _run(tmp_path, capsys, doc)
    assert (code, err) == (0, "") and out.startswith("membership[psi]: no (central-character product")


def test_factor_involution_reads_integers_and_fraction_strings(tmp_path, capsys):
    doc = {"gram": [[0, 1], [1, 0]], "matrix": [["2/3", 0], [0, "-3/2"]], "similitude": -1}
    code, out, _ = _run(tmp_path, capsys, doc, "factor-involution")
    assert code == 0 and json.loads(out)["verified"] is True


def test_exact_numbers_only():
    assert parse_rational(3, "x") == 3 and parse_rational("-6/4", "x") == parse_rational("-3/2", "x")
    for bad in (0.5, True, None, [1], "1.5", "1e3", " 1", "1/0"):
        with pytest.raises(ScenarioError, match="^x: expected an integer"):
            parse_rational(bad, "x")
    assert parse_matrix([["1/2", 0]], "m").entries() == ((Fraction(1, 2), 0),)


# ---------------------------------------------------------------------------
# a derandomized fuzzer over mutations of the demo scenario

# values of every JSON kind; a swap puts one of another kind in place of a node
KINDS = [1, "x", [], {}, True, None, 0.5, -1, "pi", [["pi", 1]], {"op": "classify"}]


def _nodes(node, path=()):
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _mutate(rng, doc):
    doc = copy.deepcopy(doc)
    path, node = rng.choice(list(_nodes(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    kind = rng.choice(["delete", "swap", "duplicate", "add"])
    if kind == "add" and isinstance(node, dict):
        node[rng.choice(["bogus", "alpha", "sign", "target", "op", "name"])] = rng.choice(KINDS)
    elif kind == "duplicate" and isinstance(node, list) and node:
        node.append(copy.deepcopy(rng.choice(node)))
    elif kind == "delete" and path:
        parent.pop(path[-1])
    elif path:
        parent[path[-1]] = rng.choice([v for v in KINDS if type(v) is not type(node)])
    else:
        doc = rng.choice(KINDS)
    return doc


def test_scenario_fuzzer_never_crashes(tmp_path, capsys):
    # every run that answers writes records with the documented keys
    rng = random.Random(20240607)
    out_path = tmp_path / "report.json"
    start = time.perf_counter()
    codes = []
    for _ in range(300):
        doc = _mutate(rng, DEMO)
        out_path.unlink(missing_ok=True)
        code, out, err = _run(tmp_path, capsys, doc, options=("--out", str(out_path)))
        codes.append(code)
        assert "Traceback" not in err
        if code == 1:
            assert "FAIL" in out
        elif code == 2:
            assert out == "" and err.count("\n") == 1
            assert err.startswith(("input error: ", "computation error: "))
        else:
            assert code == 0 and err == ""
            results = json.loads(out_path.read_text())["results"]
            assert [set(rec) for rec in results] == [OUT_KEYS[rec["op"]] for rec in results]
    assert codes.count(2) > 200 and codes.count(0) > 10
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# the scenarios of the benchmark's scenario-run workload stay valid, and
# every record they write has the documented keys


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 9001])
def test_benchmark_scenarios_are_accepted(tmp_path, capsys, seed):
    workloads = _workloads()
    for i in range(16):
        doc, _, cli_seed = workloads.scenario_input(seed, i)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "report.json"
        assert main(["run", str(path), "--seed", str(cli_seed), "--out", str(out_path)]) == 0
        assert capsys.readouterr().err == ""
        results = json.loads(out_path.read_text())["results"]
        assert [set(rec) for rec in results] == [OUT_KEYS[rec["op"]] for rec in results]


def test_the_benchmark_table_of_arthur_types_matches_the_library():
    # the benchmark types its own copy of the six example parameters: each
    # letter's summand shape must be its ArthurType's, and its rank the one
    # six_type_fixtures declares
    types = {t.letter: t for t in ArthurType}
    ranks = {letter: rank for letter, _, rank in six_type_fixtures()[1]}
    table = _workloads().ARTHUR_TYPES
    assert sorted(table) == sorted(types) == sorted(ranks)
    for letter, (_chi, summands, rank) in table.items():
        shape = tuple(sorted(((n, d) for _, n, _, _, d in summands), key=lambda nd: (-nd[0], -nd[1])))
        assert shape == types[letter].shape, letter
        assert rank == ranks[letter], letter
