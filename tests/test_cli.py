import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import pytest

import liftcalc
from liftcalc import acceptance
from liftcalc.cli import json_embedding_data, json_gram, json_matrix, main
from liftcalc.cmdata import CMEmbeddingData
from liftcalc.intmat import MAX_LIFT_BITS, MAX_LIFT_DIM, IntMatrix
from liftcalc.lifting import MAX_CLASSIFY_RANK
from liftcalc.weights import MAX_PLETHYSM_G, MAX_SPIN_RANK


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


def _seeded_quotient(rows, cols, seed):
    rng = random.Random(seed)
    return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("argv,gram", [
    (("classify-simple-types", "--max-rank", str(MAX_CLASSIFY_RANK + 1)), None),
    (("qform-invariants",), [["1000000000000000000000000000057"]]),
    (("classify-simple-types", "--max-rank", "1000000"), None),
    (("spin-weights", "--n", str(MAX_SPIN_RANK + 1), "--family", "B"), None),
    (("branch", "--to", "so4^10"), None),
    (("branch", "--to", "so3^30"), None),
    (("plethysm-check", "--g", "5"), None),
    # the spin bound is read off the block sizes, before 2^(N/2) is formed
    (("branch", "--to", "so2^4000000000"), None),
    (("branch", "--to", "so2*so8000000000"), None),
    (("branch", "--to", "gl2^2000000000"), None),
    # a datum name is refused on its semisimple rank, before anything is built
    (("dim", "--group", "GL30", "--weight", "0"), None),
    (("dim", "--group", "A18.sc", "--weight", "1"), None),
    (("dim", "--group", "A16.sc", "--weight", "1"), None),
    (("dim", "--group", "GL1000000000", "--weight", "0"), None),
    (("dim", "--group", "SO31", "--weight", "0"), None),
    (("dim", "--group", "GSp32", "--weight", "0"), None),
    (("dim", "--group", "C1000000000.adjoint", "--weight", "0"), None),
    (("lift-check", "--group", "A16.sc", "--mode", "totally-real", "--hodge"), {}),
    (("param-lift", "--group", "D16.sc", "--recipe", "finite-order"), {}),
    # a dimension or a witness entry with more digits than an int prints
    # with is refused, not written as a traceback
    (("dim", "--group", "C3.sc", "--weight", "1" * 1000 + ",0,0"), None),
    (("torus-lift",), {"quotient": [[65521, 65519]], "cocharacter": [int("9" * 4300)]}),
    # a quotient is refused on its shape and entry bits before it is factored
    (("torus-lift",), {"quotient": _seeded_quotient(58, 60, 58), "cocharacter": [1] * 58}),
    (("torus-lift",), {"quotient": _seeded_quotient(1, MAX_LIFT_DIM + 1, 1), "cocharacter": [1]}),
    (("torus-lift",), {"quotient": [[2 ** MAX_LIFT_BITS, 3]], "cocharacter": [1]}),
    # so is an embedding of the center, before any Smith form
    (("lift-check", "--group", "C2.sc", "--mode", "totally-real", "--hodge", os.devnull,
      "--tilde-embed"), [[1] + [2] * 399]),
])
def test_bound_exit_3(tmp_path, capsys, argv, gram):
    if gram is not None:
        path = tmp_path / "gram.json"
        path.write_text(json.dumps(gram))
        argv = (*argv, str(path))
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.strip().splitlines()) == 1
    assert elapsed < 2.0


@pytest.mark.parametrize("argv", [
    ("verify-paper", "--check", "no-such-check"),
    ("classify-simple-types", "--max-rank", "-3"),
    ("classify-simple-types", "--max-rank", "0"),
    ("dim", "--group", "C3.sc", "--weight", "x"),
    ("dim", "--group", "C3.sc", "--weight", "1/0,0,0"),
    ("dim", "--group", "GSpx", "--weight", "1"),
    ("branch", "--to", "soX"),
    ("branch", "--to", "so4*so"),
    ("branch", "--to", "so2*so2*so2"),
    ("dim", "--group", "C3.sc", "--weight", "3,2,1,0,9"),
    ("dim", "--group", "C3.sc", "--weight", "1,2"),
    ("dim", "--group", "GL-2", "--weight", "5,7"),
    ("dim", "--group", "GL0", "--weight", "5,7"),
    ("spin-weights", "--n", "3", "--family", "X"),
    ("no-such-subcommand",),
    ("branch",),
    ("dim", "--group", "A1.sc", "--weight", "1/2"),
    ("dim", "--group", "C3.sc", "--weight", "1/2,1/2,1/2"),
    # an exponent is refused, not expanded into a 20-million-digit integer
    ("dim", "--group", "C3.sc", "--weight", "1e20000000,0,0"),
    ("dim", "--group", "C3.sc", "--weight", "2,1,0E0"),
])
def test_argument_errors_exit_2(capsys, argv):
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert elapsed < 2.0


def test_unknown_check_lists_valid_ids(capsys):
    assert main(["verify-paper", "--check", "no-such-check"]) == 2
    err = capsys.readouterr().err
    assert all(cid in err for cid, _, _ in acceptance.REGISTRY)


def _fuzz_argv(rng, kind):
    if kind == "verify-paper":
        ids = [cid for cid, _, _ in acceptance.REGISTRY]
        check = rng.choice(ids) if rng.random() < 0.5 else rng.choice(
            ("", "no-such-check", rng.choice(ids).upper(), rng.choice(ids) + "-x"))
        return [kind, "--check", check]
    if kind == "classify-simple-types":
        rank = rng.choice((rng.randint(-5, 0), rng.randint(1, 6),
                           rng.randint(MAX_CLASSIFY_RANK + 1, 10 ** 6)))
        return [kind, "--max-rank", str(rank)]
    if kind == "spin-weights":
        # ranks stay where the enumeration is fast, or above the bound
        n = rng.choice((rng.randint(-3, 12), rng.randint(MAX_SPIN_RANK + 1, 10 ** 6)))
        return [kind, "--n", str(n), "--family", rng.choice("BD"),
                "--half", rng.choice(("plus", "minus", "both"))]
    if kind == "branch":
        # spin ranks on both sides of MAX_SPIN_RANK, half of them as tables
        c, d = rng.randint(2, 6), rng.randint(1, 12)
        to = rng.choice((f"so{c}^{d}", f"gl{c}^{d}", f"so{c}*so{rng.randint(2, 40)}"))
        table = ["--format", "table"] if rng.random() < 0.5 else []
        return [kind, *table, "--to", to]
    # small moduli, some refused, or large ones up to the integer parse
    # limit; most multipliers are units, so that many pairs get a full report
    n = rng.choice((rng.randint(-3, 12), rng.randint(10 ** 6, 10 ** 4299)))
    pair = []
    while len(pair) < 2:
        x = rng.randint(-20, 20)
        if gcd(x, n) == 1 or rng.random() < 0.2:
            pair.append(x)
    return [kind, "--n", str(n), "--alpha", str(pair[0]), "--beta", str(pair[1])]


def _fuzz_dim_argv(rng):
    """A highest weight that may be half-integral, of the wrong length or unparsable."""
    group = rng.choice(("A1.sc", "A2.sc", "B2.adjoint", "C2.sc", "C3.sc", "G2.sc",
                        "B3.adjoint", "GL3", "SO5"))
    rank = {"A1": 1, "A2": 2, "B2": 2, "C2": 2, "C3": 3, "G2": 2, "B3": 3,
            "GL": 3, "SO": 2}[group[:2]]
    length = rng.choice((rank, rank, rank, rng.randint(0, rank + 2)))
    entries = [rng.choice((0, 1, 2, 3, Fraction(1, 2), Fraction(3, 2), -1, Fraction(-1, 2)))
               for _ in range(length)]
    if rng.random() < 0.7:
        entries.sort(reverse=True)   # dominant in e coordinates
    entries = [str(x) for x in entries]
    if rng.random() < 0.2:
        entries.append(rng.choice(("x", "", "1/3", "1/0", "0.5.1")))
    return ["dim", "--group", group, "--weight=" + ",".join(entries)]


def _invalid_choice_argv(rng):
    """An argument argparse refuses: a bad choice, a bad number, a missing or unknown name."""
    junk = rng.choice(("X", "", "b", "plus", "-1", "3.5", "so3"))
    return rng.choice((
        ["spin-weights", "--n", str(rng.randint(0, 6)), "--family", junk],
        ["spin-weights", "--n", str(rng.randint(0, 6)), "--family", rng.choice("BD"),
         "--half", junk],
        ["dim", "--group", "C2.sc", "--weight", "1,0", "--format", junk],
        ["lift-check", "--group", "C2.sc", "--mode", junk, "--hodge", "hodge.json"],
        ["plethysm-check", "--g", junk],
        ["heisenberg-demo", "--n", junk, "--alpha", "1", "--beta", "2"],
        ["branch"],
        [junk],
    ))


def _fuzz_number(rng):
    """Mostly a small integer, as a number or a string; sometimes a float or junk."""
    return rng.choice((
        rng.randint(-9, 9), rng.randint(-9, 9), str(rng.randint(-9, 9)),
        f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}",
        rng.choice((1.5, 0.1, 2.0, -0.0, 1e300, float("inf"), float("nan"))),
        rng.choice(("x", "", "1/0", None, True, [1], {"a": 1})),
    ))


def _fuzz_matrix(rng, rows, cols):
    """A rows x cols matrix of _fuzz_number entries, now and then with a short row."""
    m = [[_fuzz_number(rng) if rng.random() < 0.05 else rng.randint(-9, 9)
          for _ in range(cols)] for _ in range(rows)]
    if m and rng.random() < 0.1:
        m[rng.randrange(rows)].pop()
    return m


def _valid_cm(rng):
    """Valid embedding data of one to three labels, totally real or CM."""
    k = rng.randint(1, 3)
    if rng.random() < 0.5:
        labels = [f"v{i}" for i in range(k)]
        conj = {l: l for l in labels}
        return {"labels": labels, "conj": conj, "cm_labels": labels,
                "restrict": dict(conj), "cm_conj": dict(conj), "mode": "totally_real"}
    labels = [x for i in range(k) for x in (f"s{i}", f"s{i}c")]
    conj = {l: l[:-1] if l.endswith("c") else l + "c" for l in labels}
    return {"labels": labels, "conj": conj, "cm_labels": labels,
            "restrict": {l: l for l in labels}, "cm_conj": dict(conj), "mode": "cm"}


def _fuzz_cm(rng):
    """Embedding data of one to three labels: valid, a wrong mode or a non-string label."""
    cm = _valid_cm(rng)
    labels = cm["labels"]
    spoil = rng.random()
    if spoil < 0.1:
        cm["mode"] = rng.choice(("general_imaginary", "x", 3))
    elif spoil < 0.2:
        cm["labels"] = [*labels[:-1], rng.choice(([labels[-1]], 7, None))]
    return cm


def _fuzz_classes(rng, cm):
    """A class at each label, now and then one missing or one at a stray label."""
    classes = {l: _fuzz_number(rng) if rng.random() < 0.05 else rng.randint(-9, 9)
               for l in cm["labels"] if isinstance(l, str)}
    if rng.random() < 0.6:
        # opposite classes at conjugate labels, as type A extensions need
        for l, c in cm["conj"].items():
            if l < c and type(classes.get(l)) is int:
                classes[c] = -classes[l]
    if rng.random() < 0.1:
        classes["zz"] = 1
    elif classes and rng.random() < 0.1:
        classes.pop(next(iter(classes)))
    return classes


def _fuzz_payload_argv(rng, kind, path):
    """Argv and a payload for one of the JSON subcommands, drawn by size."""
    if kind == "torus-lift":
        rows = rng.randint(0, 5)
        payload = {"quotient": _fuzz_matrix(rng, rows, rows + rng.randint(0, 2)),
                   "cocharacter": [_fuzz_number(rng) if rng.random() < 0.05 else rng.randint(-9, 9)
                                   for _ in range(rows + (rng.random() < 0.1))]}
        argv = [kind]
    elif kind in ("qform-invariants", "clifford-split"):
        n = rng.randint(0, 7)
        if kind == "clifford-split" and rng.random() < 0.8:
            n |= 1   # the even Clifford test takes odd rank
        gram = _fuzz_matrix(rng, n, n)
        if rng.random() < 0.8:
            # symmetric, unless a short row was drawn
            gram = [[gram[min(i, j)][max(i, j)] if max(i, j) < len(gram[min(i, j)]) else 0
                     for j in range(n)] for i in range(n)]
        payload = gram
        argv = [kind] if kind == "qform-invariants" else [kind, "--gram"]
    elif kind == "lift-check":
        cm = _fuzz_cm(rng)
        group, rank = rng.choice((("C2.sc", 2), ("A1.sc", 1), ("GSp4", 3)))
        rank += rng.random() < 0.1
        payload = {"cm": cm, "mu": {l: [_fuzz_number(rng) if rng.random() < 0.05
                                        else rng.randint(-4, 4) for _ in range(rank)]
                                    for l in cm["labels"] if isinstance(l, str)}}
        argv = [kind, "--group", group, "--tilde", "gm",
                "--mode", "totally-real" if cm["mode"] == "totally_real" else "imaginary",
                "--hodge"]
    elif kind == "param-lift":
        pairs = {}
        for i in range(rng.randint(0, 3)):
            # mostly tempered, nu = -mu
            a = rng.randint(-5, 5)
            mu = _fuzz_number(rng) if rng.random() < 0.2 else f"{a}/2"
            nu = rng.choice((f"{-a}/2", f"{-a}/2", f"{rng.randint(-5, 5)}/2"))
            pairs[f"v{i}"] = {"mu": [mu], "nu": [nu]}
        payload = {"pairs": pairs}
        argv = [kind, "--group", "A1.sc", "--tilde", "gm",
                "--recipe", rng.choice(("finite-order", "cm-typeA"))]
    else:
        cm = _fuzz_cm(rng)
        n = rng.choice((_fuzz_number(rng), rng.randint(-2, 0), rng.randint(1, 8),
                        rng.randint(1, 8), rng.randint(1, 8)))
        key = "m" if kind == "hecke-feasible" else "k"
        payload = {"cm": cm, "n": n, key: _fuzz_classes(rng, cm)}
        argv = [kind]
    path.write_text(json.dumps(payload))
    return [*argv, str(path)]


def _containers(value, path=()):
    """The path of every array and object in a JSON value, the value's own first."""
    if isinstance(value, (list, dict)):
        yield path
        for k, v in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _containers(v, (*path, k))


def _swapped_container_argv(rng, kind, path):
    """Argv and a valid payload for kind, with one array or object in it swapped
    for a string, object or array that iterates over the same items."""
    def small():
        return rng.randint(-4, 4)
    if kind == "torus-lift":
        rows = rng.randint(1, 3)
        payload = {"quotient": [[small() for _ in range(rows + rng.randint(0, 1))]
                                for _ in range(rows)],
                   "cocharacter": [small() for _ in range(rows)]}
        argv = [kind]
    elif kind in ("qform-invariants", "clifford-split"):
        n = rng.choice((1, 3, 5))
        g = [[small() for _ in range(n)] for _ in range(n)]
        payload = [[g[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        argv = [kind] if kind == "qform-invariants" else [kind, "--gram"]
    elif kind == "lift-check":
        cm = _valid_cm(rng)
        payload = {"cm": cm, "mu": {l: [small(), small()] for l in cm["labels"]}}
        argv = [kind, "--group", "C2.sc", "--tilde", "gm", "--mode",
                "totally-real" if cm["mode"] == "totally_real" else "imaginary", "--hodge"]
    elif kind == "param-lift":
        halves = [small() for _ in range(rng.randint(1, 3))]
        payload = {"pairs": {f"v{i}": {"mu": [f"{a}/2"], "nu": [f"{-a}/2"]}
                             for i, a in enumerate(halves)}}
        argv = [kind, "--group", "A1.sc", "--tilde", "gm", "--recipe", "finite-order"]
    else:
        cm = _valid_cm(rng)
        key = "m" if kind == "hecke-feasible" else "k"
        payload = {"cm": cm, "n": rng.randint(1, 8), key: {l: small() for l in cm["labels"]}}
        argv = [kind]
    # an array becomes the string of its items or an object keyed by them; an
    # object becomes its list of pairs, its list of keys or its keys joined
    box = [payload]
    *parent, last = rng.choice(list(_containers(payload, (0,))))
    holder = box
    for k in parent:
        holder = holder[k]
    value = holder[last]
    if isinstance(value, list):
        holder[last] = rng.choice(("".join(map(str, value)), {str(x): 0 for x in value}))
    else:
        holder[last] = rng.choice(([[k, v] for k, v in value.items()], list(value),
                                   "".join(value)))
    path.write_text(json.dumps(box[0]))
    return [*argv, str(path)]


_FUZZ_KINDS = (("verify-paper", "classify-simple-types", "heisenberg-demo"),
               ("branch", "spin-weights"))
_JSON_KINDS = ("lift-check", "param-lift", "torus-lift", "hecke-feasible",
               "galois-char-feasible", "qform-invariants", "clifford-split")


def test_cli_fuzz(tmp_path, capsys):
    rng = random.Random(20121)
    cases = []
    for case in range(90):
        kinds = _FUZZ_KINDS[0] if case < 30 else _FUZZ_KINDS[1]
        cases.append(_fuzz_argv(rng, kinds[case % len(kinds)]))
    # invalid choices come after, from their own seed, so the cases above keep their inputs
    rng = random.Random(20122)
    cases += [_invalid_choice_argv(rng) for _ in range(30)]
    # highest weights for dim come last, from a seed of their own
    rng = random.Random(20123)
    cases += [_fuzz_dim_argv(rng) for _ in range(40)]
    # payloads for the JSON subcommands come after those, from a seed of their own
    rng = random.Random(20124)
    cases += [_fuzz_payload_argv(rng, _JSON_KINDS[i % len(_JSON_KINDS)], tmp_path / f"p{i}.json")
              for i in range(140)]
    # plethysm-check comes last, from a seed of its own: g on both sides of 1..MAX_PLETHYSM_G
    rng = random.Random(20125)
    gs = [rng.choice((rng.randint(1, MAX_PLETHYSM_G), rng.randint(-5, 0),
                      rng.randint(MAX_PLETHYSM_G + 1, 10 ** 6))) for _ in range(15)]
    cases += [["plethysm-check", "--g", str(g)] for g in gs]
    # payloads with an array or object swapped for another iterable come last,
    # from a seed of their own; every one is refused
    rng = random.Random(20126)
    cases += [_swapped_container_argv(rng, _JSON_KINDS[i % len(_JSON_KINDS)],
                                      tmp_path / f"s{i}.json") for i in range(35)]
    codes = []
    for argv in cases:
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        # a report goes to stdout; a refused input gets one stderr line
        assert len(err.strip().splitlines()) == (1 if code in (2, 3) else 0), argv
        assert elapsed < 3.0, argv
        codes.append(code)
    assert {0, 2, 3} <= set(codes[:90])
    assert codes[90:120].count(2) >= 25
    assert {0, 2} == set(codes[120:160])
    assert {0, 1, 2} <= set(codes[160:300])
    assert codes[300:315] == [0 if 1 <= g <= MAX_PLETHYSM_G else 2 if g < 1 else 3 for g in gs]
    assert {0, 2, 3} == set(codes[300:315])
    assert codes[315:] == [2] * 35


def test_help_exits_0(capsys):
    for argv in (["--help"], ["spin-weights", "--help"], ["plethysm-check", "-h"],
                 ["branch", "--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: liftcalc")
        assert "--bound" not in out


def test_branch_cli(capsys):
    code, out = run(capsys, "branch", "--from", "so9", "--to", "so3^3")
    assert code == 0 and json.loads(out)["pass"]
    code2, out2 = run(capsys, "branch", "--to", "so2*so3")
    assert code2 == 0 and json.loads(out2)["pass"]
    code3, out3 = run(capsys, "branch", "--to", "gl2^2")
    assert code3 == 0 and json.loads(out3)["pass"]


@pytest.mark.parametrize("source, target, home", [
    ("so8", "so3^3", "so9"),
    ("so9", "so2*so3", "so5"),
    ("so9", "gl2^2", "so8"),
])
def test_branch_refuses_a_source_the_target_does_not_live_in(capsys, source, target, home):
    assert main(["branch", "--from", source, "--to", target]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"input error: target {target!r} lives inside {home}, not {source!r}\n"


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


def test_json_gram_hands_integral_entries_over_as_int():
    # integral strings, "4/2" among them, become ints; each distinct string is
    # parsed once, so the two "1/2" entries are one Fraction
    q = json_gram([["2", "1/2", 3], ["1/2", "4/2", "-7"], [3, "-7", "0"]])
    assert q.gram == ((2, Fraction(1, 2), 3), (Fraction(1, 2), 2, -7), (3, -7, 0))
    assert q.gram[0][1] is q.gram[1][0]
    assert [type(x) for r in q.gram for x in r].count(int) == 7


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


@pytest.mark.slow
def test_galchar_cli_is_not_quadratic_in_the_labels(tmp_path, capsys):
    # the witness re-check once sorted every restriction class per label:
    # 16 000 totally real labels took over 20 s; one map of least labels
    # makes it linear after a single sort
    labels = [f"v{i}" for i in range(16000)]
    ident = {l: l for l in labels}
    payload = {"cm": {"labels": labels, "conj": ident, "cm_labels": labels,
                      "restrict": ident, "cm_conj": ident, "mode": "totally_real"},
               "n": 7, "k": {l: 3 for l in labels}}
    path = tmp_path / "gal.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    code, out = run(capsys, "galois-char-feasible", str(path))
    elapsed = time.perf_counter() - start
    assert code == 0
    res = json.loads(out)
    assert res["feasible"] and res["purity_weight"] == 6
    assert set(res["witness"].values()) == {"3/7"} and len(res["witness"]) == 16000
    assert elapsed < 5.0


def test_malformed_json_exit(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["torus-lift", str(path)])
    capsys.readouterr()
    assert code == 2
    path.write_bytes(b"\xff\xfe{")   # not UTF-8
    code = main(["torus-lift", str(path)])
    assert code == 2 and "cannot read JSON" in capsys.readouterr().err


def test_matrix_json_roundtrip():
    A = IntMatrix.from_rows([[1, -2], [30, 4]])
    assert json_matrix([["1", "-2"], ["30", "4"]]) == A
    assert json_matrix([[1, "-2"], ["30", 4]]) == A


def test_embedding_data_json_roundtrip():
    ident = {"v0": "v0", "v1": "v1"}
    real = {"labels": ["v0", "v1"], "conj": ident, "cm_labels": ["v0", "v1"],
            "restrict": ident, "cm_conj": ident, "mode": "totally_real"}
    assert json_embedding_data(real) == CMEmbeddingData.totally_real(2)
    labels = ["s0", "s0c", "s1", "s1c"]
    conj = {"s0": "s0c", "s0c": "s0", "s1": "s1c", "s1c": "s1"}
    pairs = {"labels": labels, "conj": conj, "cm_labels": labels,
             "restrict": {l: l for l in labels}, "cm_conj": conj, "mode": "cm"}
    assert json_embedding_data(pairs) == CMEmbeddingData.cm_pairs(2)


_CM_REAL = {"labels": ["v0"], "conj": {"v0": "v0"}, "cm_labels": ["v0"],
            "restrict": {"v0": "v0"}, "cm_conj": {"v0": "v0"}, "mode": "totally_real"}
_CM_PAIR = {"labels": ["s0", "s0c"], "conj": {"s0": "s0c", "s0c": "s0"},
            "cm_labels": ["s0", "s0c"], "restrict": {"s0": "s0", "s0c": "s0c"},
            "cm_conj": {"s0": "s0c", "s0c": "s0"}, "mode": "cm"}
_CM_REAL2_REPEAT = {"labels": ["v0", "v0", "v1"], "conj": {"v0": "v0", "v1": "v1"},
                    "cm_labels": ["v0", "v1"], "restrict": {"v0": "v0", "v1": "v1"},
                    "cm_conj": {"v0": "v0", "v1": "v1"}, "mode": "totally_real"}
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
    (("hecke-feasible",), {"cm": _CM_PAIR, "n": 4, "m": {"s0": 1, "s0c": 3, "zz": 1}}),
    (("galois-char-feasible",), {"cm": _CM_PAIR, "n": 2, "k": {"s0": 1, "s0c": 0, "zz": 1}}),
    # a JSON number other than an integer is refused, never truncated, rounded
    # or read as its binary value; a string payload is the file's raw text
    (("qform-invariants",), "[[1e400]]"),
    (("clifford-split", "--gram"), "[[1e400]]"),
    (("torus-lift",), '{"quotient": [[1e400]], "cocharacter": [1]}'),
    (("torus-lift",), '{"quotient": [[1.5, 2]], "cocharacter": [1]}'),
    (("qform-invariants",), "[[0.1]]"),
    (("hecke-feasible",), {"cm": dict(_CM_PAIR, labels=[["a"]]), "n": 4, "m": {"s0": 1, "s0c": 3}}),
    (("galois-char-feasible",), {"cm": dict(_CM_PAIR, labels=[["a"]]), "n": 2,
                                 "k": {"s0": 1, "s0c": 0}}),
    (("torus-lift",), {"quotient": [[2, 3]], "cocharacter": [1.5]}),
    (("torus-lift",), {"quotient": [[True, 3]], "cocharacter": [1]}),
    (("hecke-feasible",), {"cm": _CM_PAIR, "n": 4.0, "m": {"s0": 1, "s0c": 3}}),
    (("hecke-feasible",), {"cm": _CM_PAIR, "n": 4, "m": {"s0": 1.5, "s0c": 3}}),
    (("galois-char-feasible",), {"cm": _CM_PAIR, "n": 2.5, "k": {"s0": 1, "s0c": 0}}),
    (("galois-char-feasible",), {"cm": _CM_PAIR, "n": 2, "k": {"s0": 1, "s0c": 0.0}}),
    (_LIFT, {"cm": _CM_REAL, "mu": {"v0": [1.5, 0]}}),
    (_PARAM, {"pairs": {"v1": {"mu": [0.5], "nu": ["-1/2"]}}}),
    (("qform-invariants",), "[[NaN]]"),
    # the Grunwald-Wang flag is a JSON boolean, never a string, number or null
    (("hecke-feasible",), {"cm": _CM_PAIR, "n": 4, "m": {"s0": 1, "s0c": 3},
                           "grunwald_wang": "false"}),
    (("hecke-feasible",), {"cm": _CM_PAIR, "n": 4, "m": {"s0": 1, "s0c": 3},
                           "grunwald_wang": 0}),
    (("hecke-feasible",), {"cm": _CM_PAIR, "n": 4, "m": {"s0": 1, "s0c": 3},
                           "grunwald_wang": None}),
    # a string or an object where an array belongs, or an array where an
    # object belongs, is refused rather than read item by item
    (("torus-lift",), {"quotient": ["23"], "cocharacter": [1]}),
    (("torus-lift",), {"quotient": {"23": 0}, "cocharacter": [1]}),
    (("torus-lift",), {"quotient": [[2, 3]], "cocharacter": "1"}),
    (("torus-lift",), {"quotient": [[2, 3]], "cocharacter": {"1": 0}}),
    (("qform-invariants",), [["1", "2"], "23"]),
    (("qform-invariants",), {"1": 0}),
    (("clifford-split", "--gram"), ["1"]),
    (_LIFT, {"cm": _CM_REAL, "mu": {"v0": "10"}}),
    (_LIFT, {"cm": _CM_REAL, "mu": {"v0": {"1": 0, "0": 0}}}),
    (_LIFT, {"cm": dict(_CM_REAL, labels="v0"), "mu": {"v0": [1, 0]}}),
    (_LIFT, {"cm": dict(_CM_REAL, cm_labels="v0"), "mu": {"v0": [1, 0]}}),
    (_PARAM, {"pairs": {"v1": {"mu": "1", "nu": ["-1"]}}}),
    (_PARAM, {"pairs": {"v1": {"mu": ["-1"], "nu": "1"}}}),
    (("hecke-feasible",), {"cm": dict(_CM_PAIR, conj=[["s0", "s0c"], ["s0c", "s0"]]),
                           "n": 4, "m": {"s0": 1, "s0c": 3}}),
    (("hecke-feasible",), {"cm": dict(_CM_PAIR, restrict=[["s0", "s0"], ["s0c", "s0c"]]),
                           "n": 4, "m": {"s0": 1, "s0c": 3}}),
    (("galois-char-feasible",), {"cm": dict(_CM_PAIR, cm_conj=[["s0", "s0c"], ["s0c", "s0"]]),
                                 "n": 2, "k": {"s0": 1, "s0c": 0}}),
    (("galois-char-feasible",), {"cm": dict(_CM_PAIR, conj="s0"), "n": 2,
                                 "k": {"s0": 1, "s0c": 0}}),
    # a string with an exponent is refused, not expanded into a
    # 20-million-digit integer
    (_PARAM, {"pairs": {"v0": {"mu": ["1e20000000"], "nu": ["0"]}}}),
    (_PARAM, {"pairs": {"v0": {"mu": ["1/2"], "nu": ["5E-3"]}}}),
    (("qform-invariants",), [["1e20000000"]]),
    (("clifford-split", "--gram"), [["1", "0", "0"], ["0", "1E20000000", "0"], ["0", "0", "1"]]),
    # an integer past the digit limit of int() is refused while reading the file
    (("torus-lift",), '{"quotient": [[2, 3]], "cocharacter": [' + "7" * 5000 + "]}"),
    # a repeated embedding label, and a weight at an unknown label, are refused
    (("galois-char-feasible",), {"cm": _CM_REAL2_REPEAT, "n": 4, "k": {"v0": 1, "v1": 1}}),
    (_LIFT, {"cm": _CM_REAL, "mu": {"v0": [1, 0], "zz": [0, 0]}}),
])
def test_payload_errors_exit_2(tmp_path, capsys, argv, payload):
    path = tmp_path / "payload.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    start = time.perf_counter()
    code = main([*argv, str(path)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert elapsed < 2.0


@pytest.mark.parametrize("argv,payload,err", [
    (("torus-lift",), {"quotient": [["2", "x"]], "cocharacter": [1]},
     "bad torus-lift payload: invalid literal for int() with base 10: 'x'"),
    (("torus-lift",), {"quotient": [[2, 3], [1]], "cocharacter": [1, 1]}, "ragged matrix"),
    (("lift-check", "--group", "C2.sc", "--mode", "totally-real", "--hodge", os.devnull,
      "--tilde-embed"), ["1"], "bad lift-check payload: expected an array, not str"),
    (("param-lift", "--group", "A1.sc", "--recipe", "finite-order", os.devnull,
      "--tilde-embed"), [[1.5]],
     "bad param-lift payload: expected an integer or a string, not float"),
    (("hecke-feasible",), {"cm": dict(_CM_PAIR, mode=0), "n": 4, "m": {}},
     "bad hecke-feasible payload: labels and mode must be strings"),
    (("galois-char-feasible",), {"cm": dict(_CM_PAIR, conj=[])},
     "bad galois-char-feasible payload: conj, restrict and cm_conj must be objects"),
    # embedding data check themselves when built, before the rest is read
    (("hecke-feasible",), {"cm": dict(_CM_PAIR, mode="totally_real")},
     "invalid embedding data: totally_real mode requires trivial conjugation"),
    (_LIFT, {"cm": dict(_CM_REAL, labels=[])}, "invalid embedding data: label set is empty"),
    (("qform-invariants",), [["1", "2"], ["3"]], "Gram matrix must be square"),
    (("clifford-split", "--gram"), [["1/0"]], "bad Gram matrix payload: Fraction(1, 0)"),
    (("galois-char-feasible",), {"cm": _CM_REAL2_REPEAT, "n": 4, "k": {"v0": 1, "v1": 1}},
     "invalid embedding data: a label is repeated"),
    (("hecke-feasible",), {"cm": dict(_CM_PAIR, cm_labels=["s0", "s0c", "s0"])},
     "invalid embedding data: a cm label is repeated"),
    (_LIFT, {"cm": _CM_REAL, "mu": {"v0": [1, 0], "zz": [0, 0]}},
     "weight family must cover exactly the labels"),
    (_LIFT, {"cm": _CM_REAL, "mu": {}}, "weight family must cover exactly the labels"),
])
def test_payload_error_messages(tmp_path, capsys, argv, payload, err):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    assert main([*argv, str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {err}\n"


def test_hecke_grunwald_wang_flag(tmp_path, capsys):
    path = tmp_path / "hecke.json"
    notes = {}
    for flag in (True, False, "absent"):
        payload = {"cm": _CM_PAIR, "n": 4, "m": {"s0": 1, "s0c": 3}}
        if flag != "absent":
            payload["grunwald_wang"] = flag
        path.write_text(json.dumps(payload))
        code, out = run(capsys, "hecke-feasible", str(path))
        assert code == 0
        notes[flag] = json.loads(out)["annotation"]
    assert notes == {True: "Grunwald-Wang special case flagged by caller",
                     False: "", "absent": ""}


def test_verify_single_check(capsys):
    code, out = run(capsys, "verify-paper", "--check", "torus-lifting-gcd")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] and payload["within_budgets"]


def test_verify_budget_overrun_exits_0(capsys, monkeypatch):
    # budgets depend on the hardware, so the exit status follows the pass flags only
    monkeypatch.setattr(acceptance, "REGISTRY", [
        (cid, 0.0 if cid == "spin-center-parity" else budget, func)
        for cid, budget, func in acceptance.REGISTRY])
    code, out = run(capsys, "verify-paper", "--check", "spin-center-parity")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] and payload["within_budgets"] is False


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


def _fresh_env():
    """The environment of a fresh ``python -m liftcalc`` that imports this checkout."""
    src = os.path.dirname(os.path.dirname(liftcalc.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_python_m_liftcalc_matches_cli_module():
    env = _fresh_env()
    argv = ["dim", "--group", "C3.sc", "--weight", "2,1,0"]
    package, module = (subprocess.run([sys.executable, "-m", m, *argv], capture_output=True,
                                      text=True, env=env, timeout=60)
                       for m in ("liftcalc", "liftcalc.cli"))
    assert package.returncode == module.returncode == 0
    assert package.stdout == module.stdout
    assert json.loads(package.stdout)["dimension"] == 64


def test_dim_half_integral_weight_exits_2(capsys):
    # 1/2 pairs to 1/2 with the coroot of A1.sc: refused before the Weyl product
    code = main(["dim", "--group", "A1.sc", "--weight", "1/2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip() == "input error: highest weight must pair to an integer with every simple coroot"
    # the spin weight of B3 pairs to integers with every simple coroot
    code, out = run(capsys, "dim", "--group", "B3.adjoint", "--weight", "1/2,1/2,1/2")
    assert code == 0 and json.loads(out)["dimension"] == 8


def test_dim_weight_with_leading_minus(capsys):
    # argparse reads a separate -1,0,0 as an option; the = spelling reaches the program
    code = main(["dim", "--group", "C3.sc", "--weight", "-1,0,0"])
    assert code == 2
    assert capsys.readouterr().err == "input error: argument --weight: expected one argument\n"
    code = main(["dim", "--group", "C3.sc", "--weight=-1,0,0"])
    assert code == 2
    assert capsys.readouterr().err == "input error: highest weight must be dominant\n"


@pytest.mark.parametrize("argv", [["verify-paper", "--check", "gl1-feasibility"],
                                  ["dim", "--group", "C3.sc", "--weight", "2,1,0",
                                   "--format", "table"]])
def test_closed_stdout_exits_1_without_traceback(argv):
    env = _fresh_env()
    # the reading end is closed before the process starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "liftcalc", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_heisenberg_at_the_modulus_bound_exits_0():
    # nothing in heisenberg-demo grows with n, so a modulus is limited only
    # by the digits Python parses an int from
    digits = sys.get_int_max_str_digits()
    n = 10 ** (digits - 1) + 1     # 3 does not divide it
    argv = [sys.executable, "-m", "liftcalc", "heisenberg-demo", "--alpha", "1", "--beta", "3"]
    start = time.perf_counter()
    proc = subprocess.run([*argv, "--n", str(n)], capture_output=True, text=True,
                          env=_fresh_env(), timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0 and proc.stderr == ""
    payload = json.loads(proc.stdout)
    assert payload["elementwise_projectively_conjugate"] is True
    assert payload["globally_twist_equivalent"] is False
    assert elapsed < 1.0
    # one digit more is refused by argparse, with exit 2 and one stderr line
    proc = subprocess.run([*argv, "--n", str(n) + "0"], capture_output=True, text=True,
                          env=_fresh_env(), timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1
