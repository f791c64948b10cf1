import json

import pytest

from gspin.cli import main
from gspin.scenario import ScenarioError, load_scenario


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


@pytest.mark.parametrize("local", [[], [["v1", {"pi1": -1}]]])
def test_multiplicity_rejects_non_discrete_parameter(tmp_path, capsys, local):
    # pi1[1] + pi1[1] repeats a summand; the rejection names that whether or
    # not the local data would make a character of its component group
    doc = {
        "characters": {"generators": [{"name": "chi0"}], "defined": {"chi": {"free": {"chi0": 1}}}},
        "cuspidals": [{"id": "pi1", "N": 2, "central_character": "chi", "chi": "chi"}],
        "parameters": [{"name": "psi", "chi": "chi", "summands": [["pi1", 1], ["pi1", 1]]}],
        "local_data": {"psi": local},
        "requests": [{"op": "multiplicity", "parameter": "psi"}],
    }
    code = main(["run", write_scenario(tmp_path, doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "computation error: not a discrete parameter: not discrete: repeated summand\n"


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
