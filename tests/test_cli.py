import json
from pathlib import Path

import pytest

from gspin import cli, params
from gspin.cli import main
from gspin.dualgroups import SP4_GL1
from gspin.scenario import ScenarioError, load_scenario
from gspin.selftest import run_selftest


SK_SCENARIO = {
    "characters": {
        "generators": [{"name": "eta0"}],
        "defined": {"chi": {"free": {"eta0": 2}}, "eta": {"free": {"eta0": 1}}},
    },
    "cuspidals": [
        {"id": "pi", "N": 2, "central_character": "chi", "chi": "chi"},
        {"id": "e1", "N": 1, "central_character": "eta", "chi": "chi"},
    ],
    "parameters": [
        {
            "name": "psi_sk",
            "chi": "chi",
            "summands": [["pi", 1], ["e1", 2]],
            "root_number_minus": True,
        }
    ],
    "local_data": {"psi_sk": []},
    "requests": [
        {"op": "classify", "parameter": "psi_sk"},
        {"op": "multiplicity", "parameter": "psi_sk"},
    ],
}


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_saito_kurokawa_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, SK_SCENARIO)
    out_path = tmp_path / "report.json"
    code = main(["run", path, "--out", str(out_path), "--seed", "5"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "type=SaitoKurokawa" in captured and "letter=d" in captured
    assert "epsilon=sgn" in captured
    assert "multiplicity[psi_sk]: 0" in captured
    payload = json.loads(out_path.read_text())
    assert payload["results"][1]["multiplicity"] == 0


def test_yoshida_scenario_multiplicity_one(tmp_path, capsys):
    doc = {
        "characters": {"generators": [{"name": "chi0"}], "defined": {"chi": {"free": {"chi0": 1}}}},
        "cuspidals": [
            {"id": "pi1", "N": 2, "central_character": "chi", "chi": "chi"},
            {"id": "pi2", "N": 2, "central_character": "chi", "chi": "chi"},
        ],
        "parameters": [{"name": "psi", "chi": "chi", "summands": [["pi1", 1], ["pi2", 1]]}],
        "local_data": {"psi": [["v1", {"pi1": -1, "pi2": -1}], ["v2", {"pi1": -1, "pi2": -1}]]},
        "requests": [
            {"op": "classify", "parameter": "psi"},
            {"op": "multiplicity", "parameter": "psi"},
            {"op": "membership", "parameter": "psi"},
        ],
    }
    code = main(["run", write_scenario(tmp_path, doc)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "type=Yoshida" in captured and "letter=b" in captured
    assert "multiplicity[psi]: 1" in captured
    assert "membership[psi]: yes" in captured


def test_a_yoshida_shape_with_the_wrong_central_character_is_a_computation_error(tmp_path, capsys):
    # pi2 declares itself symplectic, but its central character is chi beta
    doc = {
        "characters": {
            "generators": [{"name": "chi0"}, {"name": "beta", "order_two": True}],
            "defined": {"chi": {"free": {"chi0": 1}}, "chibeta": {"free": {"chi0": 1}, "torsion": ["beta"]}},
        },
        "cuspidals": [
            {"id": "pi1", "N": 2, "central_character": "chi", "chi": "chi"},
            {"id": "pi2", "N": 2, "central_character": "chibeta", "chi": "chi", "sign": -1},
        ],
        "parameters": [{"name": "psi", "chi": "chi", "summands": [["pi1", 1], ["pi2", 1]]}],
        "requests": [{"op": "membership", "parameter": "psi"}, {"op": "classify", "parameter": "psi"}],
    }
    code = main(["run", write_scenario(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "computation error: unclassifiable: central characters must equal chi\n"


@pytest.mark.parametrize(
    "v2, unknown",
    [({"pl1": -1, "pl2": -1}, "pl1"), ({"pi1": -1, "pl2": -1}, "pl2")],
    ids=["every-label-misspelt", "one-label-misspelt"],
)
def test_local_data_with_unknown_label_is_input_error(tmp_path, capsys, v2, unknown):
    doc = {
        "characters": {"generators": [{"name": "chi0"}], "defined": {"chi": {"free": {"chi0": 1}}}},
        "cuspidals": [
            {"id": "pi1", "N": 2, "central_character": "chi", "chi": "chi"},
            {"id": "pi2", "N": 2, "central_character": "chi", "chi": "chi"},
        ],
        "parameters": [{"name": "psi", "chi": "chi", "summands": [["pi1", 1], ["pi2", 1]]}],
        "local_data": {"psi": [["v1", {"pi1": -1, "pi2": -1}], ["v2", v2]]},
        "requests": [{"op": "multiplicity", "parameter": "psi"}],
    }
    code = main(["run", write_scenario(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"input error: local_data.psi[1]: unknown label {unknown!r}\n"


@pytest.mark.parametrize(
    "values, message",
    [
        ({"pi1": 2, "pi2": -1}, "character values must be +-1"),
        ({"pi1": -1}, "character violates the relations of the group"),
    ],
    ids=["value-not-a-sign", "flips-one-summand"],
)
def test_local_data_that_is_not_a_character_is_input_error(tmp_path, capsys, values, message):
    doc = {
        "characters": {"generators": [{"name": "chi0"}], "defined": {"chi": {"free": {"chi0": 1}}}},
        "cuspidals": [
            {"id": "pi1", "N": 2, "central_character": "chi", "chi": "chi"},
            {"id": "pi2", "N": 2, "central_character": "chi", "chi": "chi"},
        ],
        "parameters": [{"name": "psi", "chi": "chi", "summands": [["pi1", 1], ["pi2", 1]]}],
        "local_data": {"psi": [["v1", values]]},
        "requests": [{"op": "multiplicity", "parameter": "psi"}],
    }
    code = main(["run", write_scenario(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"input error: local_data.psi[0]: {message}\n"


def test_empty_request_list(tmp_path, capsys):
    doc = {"requests": []}
    code = main(["run", write_scenario(tmp_path, doc)])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_undeclared_id_is_input_error(tmp_path, capsys):
    doc = {
        "characters": {"generators": [{"name": "chi0"}]},
        "cuspidals": [{"id": "pi", "N": 2, "central_character": "nope", "chi": "chi0"}],
        "requests": [],
    }
    code = main(["run", write_scenario(tmp_path, doc)])
    assert code == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("op", ["multiplicity", "membership"])
def test_unknown_target_is_input_error(tmp_path, capsys, op):
    doc = dict(SK_SCENARIO, requests=[{"op": op, "parameter": "psi_sk", "target": "foo"}])
    code = main(["run", write_scenario(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "input error: requests[0].target: unknown target 'foo'\n"


def test_request_that_is_not_an_object_is_input_error(tmp_path, capsys):
    code = main(["run", write_scenario(tmp_path, {"requests": [5]})])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "input error: requests[0]: expected an object\n"


@pytest.mark.parametrize("op", ["classify", "membership", "multiplicity"])
@pytest.mark.parametrize("name", [[], ["psi_sk"], {"psi_sk": 1}])
def test_parameter_that_is_not_a_string_is_input_error(tmp_path, capsys, op, name):
    doc = dict(SK_SCENARIO, requests=[{"op": op, "parameter": name}])
    code = main(["run", write_scenario(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"input error: requests[0].parameter: undeclared parameter {name!r}\n"


@pytest.mark.parametrize("shape", [[], ["irreducible"], {"irreducible": 1}])
def test_restriction_shape_that_is_not_a_string_is_input_error(tmp_path, capsys, shape):
    code = main(["run", write_scenario(tmp_path, {"requests": [{"op": "restriction", "shape": shape}]})])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"input error: requests[0].shape: unknown restriction shape {shape!r}\n"


@pytest.mark.parametrize("target", ["gspin5", "gspin4", "gl4"])
@pytest.mark.parametrize("local", [[], [["v1", {"pi1": -1}]]])
def test_multiplicity_rejects_non_discrete_parameter(tmp_path, capsys, local, target):
    # pi1[1] + pi1[1] repeats a summand; the rejection names that whether or
    # not the local data would make a character of its component group
    doc = {
        "characters": {"generators": [{"name": "chi0"}], "defined": {"chi": {"free": {"chi0": 1}}}},
        "cuspidals": [{"id": "pi1", "N": 2, "central_character": "chi", "chi": "chi"}],
        "parameters": [{"name": "psi", "chi": "chi", "summands": [["pi1", 1], ["pi1", 1]]}],
        "local_data": {"psi": local},
        "requests": [{"op": "multiplicity", "parameter": "psi", "target": target}],
    }
    code = main(["run", write_scenario(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "computation error: not a discrete parameter: not discrete: repeated summand\n"


DEMO_SCENARIO = Path(__file__).resolve().parents[1] / "demos" / "scenario_saito_kurokawa.json"


def test_membership_of_a_parameter_of_the_wrong_size_is_a_no(tmp_path, capsys):
    # psi_sk has size 4 and sp4 needs 5: membership answers no, and
    # multiplicity rejects the parameter as not discrete
    doc = json.loads(DEMO_SCENARIO.read_text())
    membership = next(r for r in doc["requests"] if r["op"] == "membership")
    membership["target"] = "sp4"
    code = main(["run", write_scenario(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 0
    assert "membership[psi_sk]: no (parameter has size 4, target needs 5)\n" in captured.out
    assert captured.err == ""

    doc["requests"] = [{"op": "multiplicity", "parameter": "psi_sk", "target": "sp4"}]
    code = main(["run", write_scenario(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "computation error: not a discrete parameter: parameter has size 4, target needs 5\n"


def test_parse_error_is_position_annotated(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ nope }")
    code = main(["run", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_verify_endoscopy_subcommand(capsys):
    code = main(["verify-endoscopy"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pass centralizer[gspin5]" in out
    assert "pass restriction diagrams" in out


def test_selftest_passes_and_is_deterministic(capsys):
    code = main(["selftest", "--seed", "3"])
    first = capsys.readouterr().out
    assert code == 0
    assert "selftest PASS" in first
    code = main(["selftest", "--seed", "3"])
    second = capsys.readouterr().out
    assert code == 0
    assert first == second


def test_selftest_seed_variation_same_verdicts(capsys):
    main(["selftest", "--seed", "1"])
    first = capsys.readouterr().out
    main(["selftest", "--seed", "2"])
    second = capsys.readouterr().out
    verdicts = lambda text: [line.split()[0] for line in text.splitlines()[1:]]
    assert verdicts(first) == verdicts(second)


def test_selftest_fault_injection(capsys):
    code = main(["selftest", "--corrupt", "endoscopy_catalog"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL endoscopy.catalog" in out
    assert "selftest FAIL" in out


def test_selftest_involutions_fault_injection():
    ok, lines = run_selftest(0, corrupt="involutions")
    assert ok is False
    # the seed and the trial replay the failing element
    assert "FAIL involutions.factor: seed 0 trial 3 dim 4" in lines
    assert lines[-1] == "selftest FAIL"


@pytest.mark.parametrize(
    "check, line",
    [("kernel_rank", "FAIL exactlin.kernel_rank"), ("endoscopy_catalog", "FAIL endoscopy.catalog"),
     ("involutions", "FAIL involutions.factor")],
)
def test_each_corruption_hook_fails_its_own_check(capsys, check, line):
    assert main(["selftest", "--seed", "2", "--corrupt", check]) == 1
    fails = [text for text in capsys.readouterr().out.splitlines() if text.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith(line + ":")


def test_a_check_without_a_corruption_hook_is_refused(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["selftest", "--corrupt", "projection"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'projection'" in capsys.readouterr().err
    with pytest.raises(ValueError, match="check 'projection' has no corruption hook"):
        run_selftest(0, corrupt="projection")


def test_factor_involution_subcommand(tmp_path, capsys):
    doc = {
        "gram": [["0", "0", "0", "1"], ["0", "0", "1", "0"], ["0", "1", "0", "0"], ["1", "0", "0", "0"]],
        "matrix": [["3", "0", "0", "0"], ["0", "3", "0", "0"], ["0", "0", "3", "0"], ["0", "0", "0", "3"]],
        "similitude": "9",
    }
    path = tmp_path / "factor.json"
    path.write_text(json.dumps(doc))
    code = main(["factor-involution", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["y"][0][0] == "3"


def test_factor_involution_nonsquare_similitude(tmp_path, capsys):
    doc = {
        "gram": [["0", "0", "0", "1"], ["0", "0", "1", "0"], ["0", "1", "0", "0"], ["1", "0", "0", "0"]],
        "matrix": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "2", "0"], ["0", "0", "0", "2"]],
        "similitude": "2",
    }
    path = tmp_path / "factor.json"
    path.write_text(json.dumps(doc))
    code = main(["factor-involution", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_factor_involution_nonsquare_similitude_dim6(tmp_path, capsys):
    # diag(1, 1, 1, 2, 2, 2) has nu = 2 on the antidiagonal 6-form
    n = 6
    anti = [["1" if j == n - 1 - i else "0" for j in range(n)] for i in range(n)]
    diag = [[("1" if i < 3 else "2") if j == i else "0" for j in range(n)] for i in range(n)]
    path = tmp_path / "factor.json"
    path.write_text(json.dumps({"gram": anti, "matrix": diag, "similitude": "2"}))
    code = main(["factor-involution", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["verified"] is True
    assert captured.err == ""


def test_factor_involution_unsupported_dimension(tmp_path, capsys):
    n = 10
    ident = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    anti = [["1" if j == n - 1 - i else "0" for j in range(n)] for i in range(n)]
    doc = {"gram": anti, "matrix": ident, "similitude": "1"}
    path = tmp_path / "factor.json"
    path.write_text(json.dumps(doc))
    code = main(["factor-involution", str(path)])
    assert code == 2
    assert "unsupported" in capsys.readouterr().err


def test_enumerate_weyl_subcommand(capsys):
    code = main(["enumerate-weyl", "gl4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "levi[GL2 x GL2 x GL1]" in out
    assert "det_factors=[2]" in out


def test_restriction_request(tmp_path, capsys):
    doc = {"requests": [{"op": "restriction", "shape": "two_two_dihedral"}]}
    code = main(["run", write_scenario(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == 0
    assert "pass restriction count[two_two_dihedral]: 2+2 = 4" in out


def test_verify_endoscopy_request_inside_run(tmp_path, capsys):
    doc = {"requests": [{"op": "verify-endoscopy"}]}
    code = main(["run", write_scenario(tmp_path, doc)])
    assert code == 0
    assert "pass centralizer[rank1^alpha]" in capsys.readouterr().out


# op -> the keys of its --out record, as the README's table lists them
OUT_KEYS = {
    "classify": {"op", "parameter", "type", "letter", "component_rank", "epsilon", "sign_element"},
    "multiplicity": {"op", "parameter", "multiplicity"},
    "membership": {"op", "parameter", "member", "reason"},
    "restriction": {"op", "shape", "ok", "packet_sizes", "dual_size", "constituents"},
    "verify-endoscopy": {"op", "ok"},
    "selftest": {"op", "ok"},
}


def test_the_demo_scenario_writes_the_documented_record_keys(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["run", str(DEMO_SCENARIO), "--out", str(out_path)]) == 0
    capsys.readouterr()
    results = json.loads(out_path.read_text())["results"]
    assert [set(rec) for rec in results] == [OUT_KEYS[rec["op"]] for rec in results]


def test_a_gspin5_multiplicity_request_checks_membership_twice(tmp_path, capsys, monkeypatch):
    # once in cli before the local data are read and once in classify:
    # params.multiplicity adds no third check for the target classify checks
    calls = []
    original = params.psi_disc_membership

    def counted(group, psi, target, alpha_class=None):
        calls.append(target.describe())
        return original(group, psi, target, alpha_class)

    monkeypatch.setattr(params, "psi_disc_membership", counted)
    doc = {**SK_SCENARIO, "requests": [{"op": "multiplicity", "parameter": "psi_sk"}]}
    assert main(["run", write_scenario(tmp_path, doc)]) == 0
    assert capsys.readouterr().out == "multiplicity[psi_sk]: 0\n"
    assert calls == ["GSpin5", "GSpin5"]
    # any other target is still checked by params.multiplicity itself
    calls.clear()
    scn = load_scenario(json.dumps(SK_SCENARIO))
    with pytest.raises(ValueError, match="^not a discrete parameter: parameter has size 4, target needs 5$"):
        params.multiplicity(scn.group, scn.parameters["psi_sk"].parameter, [], SP4_GL1)
    assert calls == ["Sp4xGL1"]


def test_every_op_writes_the_documented_record_keys(tmp_path, capsys):
    assert sorted(OUT_KEYS) == sorted(cli._OPS)
    args = {"classify": {"parameter": "psi_sk"}, "multiplicity": {"parameter": "psi_sk"},
            "membership": {"parameter": "psi_sk"}, "restriction": {"shape": "two_two_dihedral"}}
    doc = {**SK_SCENARIO, "requests": [{"op": op, **args.get(op, {})} for op in OUT_KEYS]}
    out_path = tmp_path / "report.json"
    assert main(["run", write_scenario(tmp_path, doc), "--out", str(out_path)]) == 0
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert set(payload) == {"version", "seed", "results"}
    assert [(rec["op"], set(rec)) for rec in payload["results"]] == list(OUT_KEYS.items())


def test_report_bytes_identical_across_runs(tmp_path):
    path = write_scenario(tmp_path, SK_SCENARIO)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["run", path, "--out", str(out1), "--seed", "9"]) == 0
    assert main(["run", path, "--out", str(out2), "--seed", "9"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_scenario_loader_rejects_bad_shapes(tmp_path, capsys):
    with pytest.raises(ScenarioError):
        load_scenario("[]")
    doc = {"requests": [{"op": "restriction", "shape": "nope"}]}
    code = main(["run", write_scenario(tmp_path, doc)])
    assert code == 2
    assert "unknown restriction shape" in capsys.readouterr().err
    code = main(["run", write_scenario(tmp_path, {"requests": [{"op": "nonsense"}]})])
    assert code == 2
