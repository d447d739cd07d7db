"""Pinned sha256 digests of the lattice solvers and the CLI reports.

The CLI digests cover the reports built on the solvers, and each subcommand
not pinned elsewhere in json and table form, with three error exits.

A change in any solution, in the int or Fraction type of an entry (digests
hash ``repr``), or in any byte of a report changes a digest.
"""
import hashlib
import json
import random
from dataclasses import make_dataclass

from liftcalc.cli import main
from liftcalc.intmat import (
    IntMatrix,
    congruence_kernel_basis,
    kernel_basis,
    smith_normal_form,
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

SMITH_DIGEST = "c8e3c7321483649926dd6f034bc00ff35c179e4e7658a0d8057298cd37eb4f1b"
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
    "classify-table": "306664d45d6bb3e774672c7b7c3bbf05f3d4d8e583c9cb87fd376f3e1b26c0fa",
    "torus-lift-readme-table": "b16c29fcc769e702746ac1c128dc153ce8ce0c4d0057ce6b778e693f3775a0bd",
    "torus-lift-obstructed-table": "274b8e81642334ad957d50db705108edd9b364f4768fbaebd84e6ec0c9329d87",
    "torus-lift-2x3-table": "81205842e45c5d681bafc03faf3fd49db22b0693afb147a66b1b849a9749d49a",
    "lift-check-c2-obstructed-table": "2910e1dbe879e6bbca34a8ec3e8eda2e56c11d8c1453b3023ba22b2fd9341abe",
    "lift-check-c2-lifts-table": "acbfcccc77de807a48006de1ade01637e1245d95db6a65c1aba7f080219457e2",
    "lift-check-gsp4-imaginary-table": "bce8ecd6d25bfb9af3a4c1e25ccec0742225d050dbe05e20ed2da5b0de802190",
    "lift-check-c3-imaginary-table": "d3104ff794a838e1530cfb61110421a66db86ed2c5ef8af70c20ef405a4b74fd",
    "param-lift-a1-finite-table": "1b0dfabb133b4715df855eff64ffada38eb50d7ca261e0b1326406228762e506",
    "param-lift-c2-typeA-table": "e511729ed420c44ee6d4d50da5af3670282e0aec99aaf8f43276089be88fcdf2",
    "branch-so3^3-json": "384ae5bd3d0c562d5b1582f17663554aecf2a05a35810768d6fcd8cee28072a3",
    "branch-gl2^2-json": "41c8323f26c1ae3a9232caa9e46a986da61512d939febb9d122546eed8dca762",
    "branch-so2*so3-json": "3fa3f180d9af6ca061198f418428c5b939cf0c9e2835439e07f95bfa4cc5e31a",
    "plethysm-check-json": "68ee6da408588c84f188f0ddbec5a9608c9b2270798af2edbfbfc01f4ecb0474",
    "spin-weights-json": "6a8e9b6aa912213f707f9d35568b73dfa3aacc5c114a77cff8e5799f4891fe7e",
    "dim-json": "125ae75792f598b287b4cfb4f786b68bc38f153f4200e97dd2c4784ca5157a20",
    "hecke-feasible-json": "7671918827e503b6fad29c237c494953315dcbbc5f5515c7cd89b4c0734fdd76",
    "galois-char-feasible-json": "8744f2f7c05428d62f69039742986043dd090da057925bbc168c99710f456dfa",
    "branch-so3^3-table": "8b0764ff053df814102754e0dd13ff514f84c2ed551c845e3a1ebf5b4f1e79f5",
    "branch-gl2^2-table": "91db29fcdf743760062f09c20e11bee302c613d97f2bcd2b0af7662bd725891d",
    "branch-so2*so3-table": "2278293cfc3ba440c750b44224f830fbbeb18b4b3b3038679f72c2adecdd84e4",
    "plethysm-check-table": "0a04f442e3475666b10cb3b748b84bb64881766e527ba9426b367e43d98e2029",
    "spin-weights-table": "7c8e804c3f661c1ee3f0a32a6d5dcbfa08340cc7434df9d132860719c97a375c",
    "dim-table": "f647d4ab687a68d708276e2bca8b928c43e344853b0165fa90a133967635ec94",
    "hecke-feasible-table": "1e30fa3d08e1024cff5233febf187d1db8deffcb80f3948b85dcb2deff7723b3",
    "galois-char-feasible-table": "8a04a9ac261a0ea115f097f2dc526486167629478794c1679a03400b79d334e3",
    "error-torus-lift-payload": "eb197dc2f9ebe5523adbd7735c4aebd05f962df35a307719833147a27abd9aaa",
    "error-lift-check-payload": "25f449e20e1c6e4e62ed3bbdb7a72c26ecf08f64fb382a1f9c445a570e94eb92",
    "error-dim-bound": "529e97f14141ef1cbedd70e2bd6a733dcd98db7ad63224cfcbd0c17de576683d",
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


def smith_lines():
    # U, D and V themselves, not only what the solvers read off them: every
    # zero matrix up to 7x7, empty shapes included, then seeded matrices with
    # entries of up to 3, 5 and 16 bits
    shapes = [(r, c) for r in range(8) for c in range(8)]
    mats = [IntMatrix.zero(r, c) for r, c in shapes]
    rng = random.Random(199807)
    for bits in (3, 5, 16):
        hi = (1 << bits) - 1
        for _ in range(600):
            rows, cols = rng.choice(shapes)
            mats.append(IntMatrix(rows, cols, tuple(
                tuple(rng.randint(-hi, hi) if rng.random() < 0.7 else 0 for _ in range(cols))
                for _ in range(rows))))
    lines = []
    for A in mats:
        form = smith_normal_form(A)
        lines.append(repr((A.entries, form.U.entries, form.D.entries, form.V.entries,
                           form.invariant_factors)))
    return lines


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


# QUOTIENT_DIGEST was pinned when the centre held its torsion and free rows
# apart, beside the torsion moduli; the digest renders the centre that way.
_PinnedCenter = make_dataclass("CenterMap", ["group", "moduli", "tor_rows", "free_rows"])


def _pinned_center(center):
    r, rows = len(center.group.invariant_factors), center.rows
    return _PinnedCenter(center.group, center.group.invariant_factors,
                         IntMatrix(r, rows.cols, rows.entries[:r]),
                         IntMatrix(rows.rows - r, rows.cols, rows.entries[r:]))


def quotient_lines():
    rng = random.Random(1207)
    lines = []
    for name, rd, cqd in _cqds():
        lines.append(repr((name, _pinned_center(cqd.center), cqd.embed, cqd.ztilde_rank,
                           cqd.basis_change, cqd.d, cqd.trivial_dirs, cqd.free_dirs,
                           cqd.torsion_lifts, cqd.fiber_basis)))
        for _ in range(20):
            chi = tuple(rng.randint(-6, 6) for _ in range(rd.rank))
            lines.append(repr((chi, cqd.normalized_class(chi))))
    return lines


def test_smith_digest():
    assert _digest(smith_lines()) == SMITH_DIGEST


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

_HECKE = {"cm": _CM_PAIR, "n": 4, "m": {"s0": 1, "s0c": 3}}
_GALCHAR = {"cm": _CM_PAIR, "n": 2, "k": {"s0": 1, "s0c": 0}}
# each case above again as a table, then the other subcommands in both formats
CLI_CASES += [(f"{cid}-table", [*argv[:1], "--format", "table", *argv[1:]], fname, payload)
              for cid, argv, fname, payload in CLI_CASES]
for fmt in ("json", "table"):
    CLI_CASES += [
        (f"branch-so3^3-{fmt}", ["branch", "--format", fmt, "--from", "so9", "--to", "so3^3"],
         None, None),
        (f"branch-gl2^2-{fmt}", ["branch", "--format", fmt, "--to", "gl2^2", "--seed", "3"],
         None, None),
        (f"branch-so2*so3-{fmt}", ["branch", "--format", fmt, "--to", "so2*so3"], None, None),
        (f"plethysm-check-{fmt}", ["plethysm-check", "--format", fmt, "--g", "2"], None, None),
        (f"spin-weights-{fmt}", ["spin-weights", "--format", fmt, "--n", "4", "--family", "D",
                                 "--half", "plus"], None, None),
        (f"dim-{fmt}", ["dim", "--format", fmt, "--group", "C3.sc", "--weight", "2,1,0",
                        "--seed", "3"], None, None),
        (f"hecke-feasible-{fmt}", ["hecke-feasible", "--format", fmt], "hecke.json", _HECKE),
        (f"galois-char-feasible-{fmt}", ["galois-char-feasible", "--format", fmt],
         "galchar.json", _GALCHAR),
    ]
CLI_CASES += [
    ("error-torus-lift-payload", ["torus-lift"], "in.json", {"cocharacter": [1]}),
    ("error-lift-check-payload",
     ["lift-check", "--group", "C2.sc", "--tilde", "gm", "--mode", "totally-real", "--hodge"],
     "hodge.json", {"cm": _CM_REAL2}),
    ("error-dim-bound", ["dim", "--group", "A16.sc", "--weight", "1"], None, None),
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
