import json

import pytest

from liftcalc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_table(capsys):
    code, out = run(capsys, "classify-simple-types", "--max-rank", "4")
    assert code == 0
    payload = json.loads(out)
    rows = {r["type"]: r for r in payload["table"]}
    assert rows["C2"]["obstruction_possible"]
    assert not rows["A2"]["obstruction_possible"]
    assert payload["seed"] == 0


def test_torus_lift_roundtrip(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"quotient": [["2", "3"]], "cocharacter": [1]}))
    code, out = run(capsys, "torus-lift", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["lift_exists"]
    w = payload["witness"]
    assert 2 * w[0] + 3 * w[1] == 1

    path2 = tmp_path / "no.json"
    path2.write_text(json.dumps({"quotient": [["2", "4"]], "cocharacter": [3]}))
    code2, out2 = run(capsys, "torus-lift", str(path2))
    assert code2 == 1
    assert not json.loads(out2)["lift_exists"]


def test_lift_check_obstructed_fixture(tmp_path, capsys):
    hodge = {
        "cm": {
            "labels": ["v0", "v1"],
            "conj": {"v0": "v0", "v1": "v1"},
            "cm_labels": ["v0", "v1"],
            "restrict": {"v0": "v0", "v1": "v1"},
            "cm_conj": {"v0": "v0", "v1": "v1"},
            "mode": "totally_real",
        },
        "mu": {"v0": [2, 1], "v1": [1, 1]},
    }
    path = tmp_path / "hodge.json"
    path.write_text(json.dumps(hodge))
    code, out = run(capsys, "lift-check", "--group", "C2.sc", "--tilde", "gm",
                    "--mode", "totally-real", "--hodge", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["decision"] == "obstructed"
    assert payload["certificate"] == ["v0", "v1"]

    hodge["mu"]["v1"] = [1, 0]
    path.write_text(json.dumps(hodge))
    code2, out2 = run(capsys, "lift-check", "--group", "C2.sc", "--tilde", "gm",
                      "--mode", "totally-real", "--hodge", str(path))
    assert code2 == 0
    assert json.loads(out2)["decision"] == "lift_exists"


def test_param_lift_cli(tmp_path, capsys):
    params = {"pairs": {"v1": {"mu": ["1/2"], "nu": ["-1/2"]},
                        "v2": {"mu": ["1"], "nu": ["-1"]}}}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    code, out = run(capsys, "param-lift", "--group", "A1.sc", "--tilde", "gm",
                    "--recipe", "finite-order", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["w_lift_exists"] and not payload["l_lift_exists"]


def test_plethysm_cli(capsys):
    code, out = run(capsys, "plethysm-check", "--g", "1")
    assert code == 0 and json.loads(out)["pass"]


def test_plethysm_bound_exit(capsys):
    code = main(["plethysm-check", "--g", "7"])
    capsys.readouterr()
    assert code == 3


def test_branch_cli(capsys):
    code, out = run(capsys, "branch", "--from", "so9", "--to", "so3^3")
    assert code == 0 and json.loads(out)["pass"]
    code2, out2 = run(capsys, "branch", "--to", "so2*so3")
    assert code2 == 0 and json.loads(out2)["pass"]
    code3, out3 = run(capsys, "branch", "--to", "gl2^2")
    assert code3 == 0 and json.loads(out3)["pass"]


def test_dim_cli(capsys):
    code, out = run(capsys, "dim", "--group", "C3.sc", "--weight", "2,1,0")
    assert code == 0
    assert json.loads(out)["dimension"] == 64


def test_spin_weights_cli(capsys):
    code, out = run(capsys, "spin-weights", "--n", "4", "--family", "D",
                    "--half", "both")
    assert code == 0
    assert json.loads(out)["dimension"] == 16


def test_qform_cli(tmp_path, capsys):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps([["0", "1"], ["1", "0"]]))
    code, out = run(capsys, "qform-invariants", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["signature"] == [1, 1]
    assert payload["discriminant"] == -1


def test_clifford_cli(capsys):
    code, out = run(capsys, "clifford-split", "--builtin", "k3", "--q-eta", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["split"] and payload["matrix_size"] == 2 ** 10


def test_heisenberg_cli(capsys):
    code, out = run(capsys, "heisenberg-demo", "--n", "5", "--alpha", "1",
                    "--beta", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["elementwise_projectively_conjugate"]
    assert not payload["globally_twist_equivalent"]
    assert payload["determinants_alpha"]["Z"] == "zeta^0"


def test_hecke_cli(tmp_path, capsys):
    payload = {
        "cm": {
            "labels": ["s0", "s0c"],
            "conj": {"s0": "s0c", "s0c": "s0"},
            "cm_labels": ["s0", "s0c"],
            "restrict": {"s0": "s0", "s0c": "s0c"},
            "cm_conj": {"s0": "s0c", "s0c": "s0"},
            "mode": "cm",
        },
        "n": 4,
        "m": {"s0": 1, "s0c": 3},
    }
    path = tmp_path / "hecke.json"
    path.write_text(json.dumps(payload))
    code, out = run(capsys, "hecke-feasible", str(path))
    assert code == 0
    assert json.loads(out)["typeA"]


def test_galchar_cli(tmp_path, capsys):
    payload = {
        "cm": {
            "labels": ["s0", "s0c"],
            "conj": {"s0": "s0c", "s0c": "s0"},
            "cm_labels": ["s0", "s0c"],
            "restrict": {"s0": "s0", "s0c": "s0c"},
            "cm_conj": {"s0": "s0c", "s0c": "s0"},
            "mode": "cm",
        },
        "n": 2,
        "k": {"s0": 1, "s0c": 0},
    }
    path = tmp_path / "gal.json"
    path.write_text(json.dumps(payload))
    code, out = run(capsys, "galois-char-feasible", str(path))
    assert code == 0
    res = json.loads(out)
    assert res["feasible"] and res["purity_weight"] == 1


def test_malformed_json_exit(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["torus-lift", str(path)])
    capsys.readouterr()
    assert code == 2


_CM_REAL = {"labels": ["v0"], "conj": {"v0": "v0"}, "cm_labels": ["v0"],
            "restrict": {"v0": "v0"}, "cm_conj": {"v0": "v0"}, "mode": "totally_real"}
_CM_PAIR = {"labels": ["s0", "s0c"], "conj": {"s0": "s0c", "s0c": "s0"},
            "cm_labels": ["s0", "s0c"], "restrict": {"s0": "s0", "s0c": "s0c"},
            "cm_conj": {"s0": "s0c", "s0c": "s0"}, "mode": "cm"}
_LIFT = ("lift-check", "--group", "C2.sc", "--tilde", "gm", "--mode", "totally-real", "--hodge")
_PARAM = ("param-lift", "--group", "A1.sc", "--tilde", "gm", "--recipe", "finite-order")


@pytest.mark.parametrize("argv,payload", [
    (_LIFT, {"mu": {"v0": [1, 0]}}),
    (_LIFT, {"cm": [1], "mu": {"v0": [1, 0]}}),
    (_LIFT, {"cm": _CM_REAL}),
    (_LIFT, {"cm": _CM_REAL, "mu": [[1, 0]]}),
    (_LIFT, {"cm": _CM_REAL, "mu": {"v0": [1, "x"]}}),
    (_LIFT, {"cm": _CM_REAL, "mu": {}}),
    (_LIFT, [1, 2]),
    (_PARAM, {}),
    (_PARAM, {"pairs": [1]}),
    (_PARAM, {"pairs": {"v1": {"nu": ["1"]}}}),
    (_PARAM, {"pairs": {"v1": {"mu": ["1"]}}}),
    (_PARAM, {"pairs": {"v1": {"mu": ["x"], "nu": ["1"]}}}),
    (_PARAM, {"pairs": {"v1": {"mu": ["1/0"], "nu": ["1"]}}}),
    (("torus-lift",), {"cocharacter": [1]}),
    (("torus-lift",), {"quotient": [[2, 3]]}),
    (("torus-lift",), {"quotient": [[2, 3]], "cocharacter": 1}),
    (("torus-lift",), {"quotient": [[2, 3]], "cocharacter": ["x"]}),
    (("hecke-feasible",), {"n": 4, "m": {"s0": 1, "s0c": 3}}),
    (("hecke-feasible",), {"cm": _CM_PAIR, "m": {"s0": 1, "s0c": 3}}),
    (("hecke-feasible",), {"cm": _CM_PAIR, "n": None, "m": {"s0": 1, "s0c": 3}}),
    (("hecke-feasible",), {"cm": _CM_PAIR, "n": 4}),
    (("hecke-feasible",), {"cm": _CM_PAIR, "n": 4, "m": [1, 3]}),
    (("hecke-feasible",), {"cm": _CM_PAIR, "n": 4, "m": {"s0": 1}}),
    (("galois-char-feasible",), {"n": 2, "k": {"s0": 1, "s0c": 0}}),
    (("galois-char-feasible",), {"cm": _CM_PAIR, "k": {"s0": 1, "s0c": 0}}),
    (("galois-char-feasible",), {"cm": _CM_PAIR, "n": 2}),
    (("galois-char-feasible",), {"cm": _CM_PAIR, "n": 2, "k": {"s0": "x", "s0c": 0}}),
    (("galois-char-feasible",), {"cm": _CM_PAIR, "n": 2, "k": {"s0": 1}}),
])
def test_payload_errors_exit_2(tmp_path, capsys, argv, payload):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    code = main([*argv, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_verify_single_check(capsys):
    code, out = run(capsys, "verify-paper", "--check", "torus-lifting-gcd")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] and payload["within_budgets"]


def test_table_format(capsys):
    code, out = run(capsys, "dim", "--group", "A1.sc", "--weight", "3",
                    "--format", "table")
    assert code == 0
    assert "dimension: 4" in out


def test_report_determinism(capsys):
    _, out1 = run(capsys, "classify-simple-types", "--max-rank", "3")
    _, out2 = run(capsys, "classify-simple-types", "--max-rank", "3")
    assert out1 == out2


def test_lift_check_custom_embedding(tmp_path, capsys):
    embed = tmp_path / "embed.json"
    embed.write_text(json.dumps([["1"]]))
    hodge = {
        "cm": {
            "labels": ["v0"],
            "conj": {"v0": "v0"},
            "cm_labels": ["v0"],
            "restrict": {"v0": "v0"},
            "cm_conj": {"v0": "v0"},
            "mode": "totally_real",
        },
        "mu": {"v0": [1, 0]},
    }
    path = tmp_path / "hodge.json"
    path.write_text(json.dumps(hodge))
    code, out = run(capsys, "lift-check", "--group", "C2.sc",
                    "--tilde-embed", str(embed),
                    "--mode", "totally-real", "--hodge", str(path))
    assert code == 0
    assert json.loads(out)["decision"] == "lift_exists"
