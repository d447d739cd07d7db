"""Pinned sha256 digests of the lattice solvers and the CLI reports built on them.

A change in any solution, in the int or Fraction type of an entry (digests
hash ``repr``), or in any byte of a report changes a digest.
"""
import hashlib
import json
import random

from liftcalc.cli import main
from liftcalc.intmat import (
    IntMatrix,
    congruence_kernel_basis,
    kernel_basis,
    solve_congruence,
    solve_linear,
)
from liftcalc.lifting import classify_simple_types
from liftcalc.rootdata import (
    central_quotient_data,
    center_characters,
    datum_by_name,
    gm_embed,
    minimal_torus_embed,
)

SOLVER_DIGEST = "2305b3e9d2c14d7c9be769d7e1051d400616ff8c7a77ded30dd3a20be876ae07"
QUOTIENT_DIGEST = "4675950f5dfb9554ee2d0f5cf1a212ab7c5d1e92864d1aa9f56266a399571a0b"
CLASSIFY_DIGEST = "e3c66022eaa25e5d7b1a50074132879dbca9fc0d30855ca50bdac2e6aad0dea0"
CLI_DIGESTS = {
    "classify": "f7fb00eab2f63412e3babcc1c857b9db18b7057cbdf6d6e2d5438c3160c1609a",
    "torus-lift-readme": "d5a0f5692f43d4cdbe8174835806d0baba2759209a5b40f1352a302cf13ef614",
    "torus-lift-obstructed": "c5880959446216041b6c54fca368decf6bbed6ac068d7626f5ccd86e33014a75",
    "torus-lift-2x3": "b44480fe0e127f069453b3bd246f5ba2d1442562e157d4befb7f00c6f39423ca",
    "lift-check-c2-obstructed": "7c7ad67406c2e6be54cbdbbf1967c399cff9819f14cdcde5c5d94d024e033e57",
    "lift-check-c2-lifts": "c11efac978e6f470288bbcbd1b8a9efb81050bc38ab1447ad71f827165025475",
    "lift-check-gsp4-imaginary": "b31283f75e6d32c7d34d008586f6b531b1cb1d3eed648bca73f247f451387e96",
    "lift-check-c3-imaginary": "4019356f2233c8376b97719ae3f9314181b826f6545770747f48dee735105da7",
    "param-lift-a1-finite": "334b5da8ea20910e9cd672dd47c375369ea5e8bf8443cd8387bbef153e729913",
    "param-lift-c2-typeA": "88215431cf700601af4ee9d744abc3b3eb299e850222b6507a806b18dbb67db6",
}

# the classical types of small rank in both isogenies, the exceptional types
# and the reductive examples
DATA = [f"{f}{n}.{iso}" for f, ns in (("A", range(1, 5)), ("B", range(2, 5)),
                                      ("C", range(2, 5)), ("D", range(4, 6)))
        for n in ns for iso in ("sc", "adjoint")] + \
    ["E6.sc", "E7.sc", "E7.adjoint", "F4.sc", "G2.sc",
     "GL2", "GL3", "GSp4", "GSp6", "SO7"]


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def solver_lines():
    rng = random.Random(20120729)
    lines = []
    for _ in range(3000):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        A = IntMatrix.from_rows([[rng.randint(-9, 9) if rng.random() < 0.7 else 0
                                  for _ in range(cols)] for _ in range(rows)])
        x = [rng.randint(-5, 5) for _ in range(cols)]
        b = tuple(rng.randint(-20, 20) for _ in range(rows))
        moduli = tuple(rng.choice((0, 0, 2, 3, 4, 6)) for _ in range(rows))
        lines.append(repr((A.entries, solve_linear(A, A.apply(x)), solve_linear(A, b),
                           kernel_basis(A), solve_congruence(A, b, moduli),
                           congruence_kernel_basis(A, moduli))))
    empty = IntMatrix(0, 3, ())
    lines.append(repr((solve_linear(empty, ()), kernel_basis(empty),
                       solve_congruence(empty, (), ()), congruence_kernel_basis(empty, ()))))
    return lines


def _cqds():
    for name in DATA:
        rd = datum_by_name(name)
        yield name, rd, central_quotient_data(rd, minimal_torus_embed(rd))
        group = center_characters(rd).group
        if len(group.invariant_factors) + group.free_rank == 1:
            yield name + "/gm", rd, central_quotient_data(rd, gm_embed(rd))


def quotient_lines():
    rng = random.Random(1207)
    lines = []
    for name, rd, cqd in _cqds():
        lines.append(repr((name, cqd.center, cqd.embed, cqd.ztilde_rank, cqd.basis_change,
                           cqd.d, cqd.trivial_dirs, cqd.free_dirs, cqd.torsion_lifts,
                           cqd.fiber_basis)))
        for _ in range(20):
            chi = tuple(rng.randint(-6, 6) for _ in range(rd.rank))
            lines.append(repr((chi, cqd.normalized_class(chi))))
    return lines


def test_solver_digest():
    assert _digest(solver_lines()) == SOLVER_DIGEST


def test_central_quotient_digest():
    assert _digest(quotient_lines()) == QUOTIENT_DIGEST


def test_classify_digest():
    rows = classify_simple_types(10)
    assert _digest([json.dumps(r.to_json(), sort_keys=True) for r in rows]) == CLASSIFY_DIGEST


_CM_REAL2 = {"labels": ["v0", "v1"], "conj": {"v0": "v0", "v1": "v1"},
             "cm_labels": ["v0", "v1"], "restrict": {"v0": "v0", "v1": "v1"},
             "cm_conj": {"v0": "v0", "v1": "v1"}, "mode": "totally_real"}
_CM_PAIR = {"labels": ["s0", "s0c"], "conj": {"s0": "s0c", "s0c": "s0"},
            "cm_labels": ["s0", "s0c"], "restrict": {"s0": "s0", "s0c": "s0c"},
            "cm_conj": {"s0": "s0c", "s0c": "s0"}, "mode": "cm"}

# (id, argv, payload file name or None, payload); the payload path is appended
CLI_CASES = [
    ("classify", ["classify-simple-types", "--max-rank", "8"], None, None),
    ("torus-lift-readme", ["torus-lift"], "in.json",
     {"quotient": [["2", "3"]], "cocharacter": [1]}),
    ("torus-lift-obstructed", ["torus-lift"], "in.json",
     {"quotient": [["2", "4"]], "cocharacter": [3]}),
    ("torus-lift-2x3", ["torus-lift"], "in.json",
     {"quotient": [["2", "-4", "6"], ["3", "9", "-3"]], "cocharacter": [10, -12]}),
    ("lift-check-c2-obstructed",
     ["lift-check", "--group", "C2.sc", "--tilde", "gm", "--mode", "totally-real", "--hodge"],
     "hodge.json", {"cm": _CM_REAL2, "mu": {"v0": [2, 1], "v1": [1, 1]}}),
    ("lift-check-c2-lifts",
     ["lift-check", "--group", "C2.sc", "--tilde", "gm", "--mode", "totally-real", "--hodge"],
     "hodge.json", {"cm": _CM_REAL2, "mu": {"v0": [2, 1], "v1": [1, 0]}}),
    ("lift-check-gsp4-imaginary",
     ["lift-check", "--group", "GSp4", "--mode", "imaginary", "--hodge"],
     "hodge.json", {"cm": _CM_PAIR, "mu": {"s0": [2, 1, 0], "s0c": [1, 0, 1]}}),
    ("lift-check-c3-imaginary",
     ["lift-check", "--group", "C3.sc", "--tilde", "gm", "--mode", "imaginary", "--hodge"],
     "hodge.json", {"cm": _CM_PAIR, "mu": {"s0": [2, 1, 0], "s0c": [1, 1, 1]}}),
    ("param-lift-a1-finite",
     ["param-lift", "--group", "A1.sc", "--tilde", "gm", "--recipe", "finite-order"],
     "params.json", {"pairs": {"v1": {"mu": ["1/2"], "nu": ["-1/2"]},
                               "v2": {"mu": ["1"], "nu": ["-1"]}}}),
    ("param-lift-c2-typeA",
     ["param-lift", "--group", "C2.sc", "--tilde", "gm", "--recipe", "cm-typeA"],
     "params.json", {"pairs": {"v1": {"mu": ["2", "1"], "nu": ["-2", "-1"]},
                               "v2": {"mu": ["3/2", "1/2"], "nu": ["-3/2", "-1/2"]}}}),
]


def cli_digest(tmp_path, capsys, argv, fname, payload):
    if fname is not None:
        path = tmp_path / fname
        path.write_text(json.dumps(payload))
        argv = [*argv, str(path)]
    code = main(argv)
    cap = capsys.readouterr()
    return _digest([str(code), cap.out, cap.err])


def test_cli_digests(tmp_path, capsys):
    got = {cid: cli_digest(tmp_path, capsys, argv, fname, payload)
           for cid, argv, fname, payload in CLI_CASES}
    assert got == CLI_DIGESTS
