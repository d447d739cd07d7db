"""Pinned sha256 digests of the quadratic-form reports and the CLI output built on them.

Digests hash ``repr`` of the diagonal entries and the JSON of every report,
so a change in any diagonal Fraction, Hasse symbol, place list, error
message or byte of CLI output changes a digest.
"""
import hashlib
import json
import random
from fractions import Fraction

from liftcalc.cli import main
from liftcalc.intmat import BoundError, InputError
from liftcalc.qforms import (
    QForm,
    diagonalize,
    even_clifford_split,
    even_clifford_split_oracle,
    invariants,
)

FORMS_DIGEST = "5238b71fda47d744139be36caa6b0f7ae6e4f948698a29f6af7207be0e02dd93"
ORACLE_DIGEST = "aadfc44f494c749abae7b7a2ed4ecf22cb31e550981efe86da2438899aca8ad9"
CLI_DIGESTS = {
    "qform-a2": "759580427583974c2bba0f6b29c98c20c64ccf97b0172ef6f0bca95cb61b8703",
    "qform-rank3": "0e96eafc7034f02ef877bee5d015788cbad3cae13584876784be8155495971d4",
    "qform-rank3-table": "2a43a526006480807f0ec6f88e9212eb7b4e5494b11f12afc46be14d5a1b03d4",
    "qform-zero-diagonal": "f3462ecb3d25375e7fb4201845f225b54218859dc96986cd6d0803a608803ae1",
    "qform-hyperbolic": "2e7b778d3cc530dfce07be691ec307fe9cb38daa59e299d7efb6e37a6bd472fb",
    "qform-degenerate": "ceed2c0aeccb05d01306a2353c50c1e2a8062dcb9c2cf73b337d6480a085db36",
    "qform-not-square": "bc71738ada2fb651e00960094d4ded4d90dc79704ff1c639361fde82b47e2026",
    "qform-not-symmetric": "c938a8318a88013c37256bf6cfa3f63729b2fc1d3c93d83db57fdec41b4222c5",
    "qform-bad-entry": "13cbc3011b9a67dc393c631bc28b522f132aeeb006b0f62667c0f27af6f176bc",
    "qform-not-rows": "d50a8cf9dca5e768796f741b630fe82cd241a58a85a5c1c83169df364f0d8357",
    "clifford-k3": "61795c46d542b00dfc448a305639e442a05ea9ef6b4685baf6e2f0f302fa4fac",
    "clifford-k3-6-table": "be1ca9e90d9d229120d5ee5a8edfac8b64f27ad7020cbe715841cb21cd74c4f0",
    "clifford-rank3": "ded2b240fe3543be94a65939dc427f0130b2f901225b216b411171b6b1ac3741",
    "clifford-rank5": "be4fd8cf64ec6f43a12192d6949859aa8e1338a15092d823c75adf89a07f9593",
    "clifford-hamilton": "3a217387df365fe355533c8fda632c1efabfd7cc2b552e038b509ea3aa8cc707",
    "clifford-odd-primes": "0f0d8dd19bade4ae104e376ab6e9154011611e1fe7610696ff6a050a70794aa0",
    "clifford-even-rank": "e3381afa287918ec6932dc2ba9e4fa8f584dff639f39bb3a81fb397aa7760f9c",
    "clifford-degenerate": "ceed2c0aeccb05d01306a2353c50c1e2a8062dcb9c2cf73b337d6480a085db36",
    "clifford-no-input": "2afdca37f5906d613ccb1a883b216e37fe589bf4557f805f528f1deb56cde4a0",
}


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def seeded_grams(seed=20120731, count=900):
    """Symmetric Gram matrices of ranks 1 to 9 with Fraction entries.

    About 30% have an all-zero diagonal, which sends every pivot through
    the swap or hyperbolic step, and sparse entries make some degenerate.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 9)
        g = [[Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) if rng.random() < 0.7
              else Fraction(0) for _ in range(n)] for _ in range(n)]
        g = [[g[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        if rng.random() < 0.3:
            for k in range(n):
                g[k][k] = Fraction(0)
        yield g


def _outcome(f, q):
    try:
        res = f(q)
    except (InputError, BoundError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr(res) if isinstance(res, list) else json.dumps(res.to_json(), sort_keys=True)


def integral_entries(g):
    """g with every integral entry given as an int, as a Gram file of integers reads."""
    return [[x.numerator if x.denominator == 1 else x for x in r] for r in g]


def form_lines(grams, fs=(diagonalize, invariants, even_clifford_split)):
    lines = []
    for g in grams:
        q = QForm.from_gram(g)
        # str(2) == str(Fraction(2)), so a line does not tell int from Fraction entries
        lines.append(json.dumps([[str(x) for x in r] for r in q.gram]))
        lines.extend(_outcome(f, q) for f in fs)
    return lines


def test_forms_digest():
    assert _digest(form_lines(seeded_grams())) == FORMS_DIGEST


def test_forms_digest_with_int_entries():
    grams = [integral_entries(g) for g in seeded_grams()]
    assert any(type(x) is int for g in grams for r in g for x in r)
    assert _digest(form_lines(grams)) == FORMS_DIGEST


def seeded_integral_grams(seed=1207, count=300):
    """Symmetric integral Gram matrices of rank 3 or 5 with int entries in [-5, 5]."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice((3, 5))
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        yield [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def test_clifford_oracle_digest():
    odd = [g for g in seeded_grams() if len(g) % 2]
    integral = list(seeded_integral_grams())
    odd_int = [integral_entries(g) for g in odd]
    for grams in (odd + integral, odd_int + integral):
        assert _digest(form_lines(grams, (even_clifford_split_oracle,))) == ORACLE_DIGEST


_RANK3 = [["1", "1/2", "0"], ["1/2", "-3", "2"], ["0", "2", "5"]]
_RANK5_ZERO_DIAGONAL = [["0", "1", "2", "0", "1"], ["1", "0", "0", "3", "0"],
                        ["2", "0", "0", "1", "-1"], ["0", "3", "1", "0", "2"],
                        ["1", "0", "-1", "2", "0"]]

# (id, argv, payload or None); a payload is written to a file whose path is appended
CLI_CASES = [
    ("qform-a2", ["qform-invariants"],
     [[str(x) for x in r] for r in QForm.from_gram([[2, -1], [-1, 2]]).gram]),
    ("qform-rank3", ["qform-invariants"], _RANK3),
    ("qform-rank3-table", ["qform-invariants", "--format", "table"], _RANK3),
    ("qform-zero-diagonal", ["qform-invariants"], _RANK5_ZERO_DIAGONAL),
    ("qform-hyperbolic", ["qform-invariants", "--seed", "5"], [["0", "1"], ["1", "0"]]),
    ("qform-degenerate", ["qform-invariants"], [["1", "2"], ["2", "4"]]),
    ("qform-not-square", ["qform-invariants"], [["1", "2"], ["3"]]),
    ("qform-not-symmetric", ["qform-invariants"], [["1", "2"], ["3", "4"]]),
    ("qform-bad-entry", ["qform-invariants"], [["1/0"]]),
    ("qform-not-rows", ["qform-invariants"], [1, 2]),
    ("clifford-k3", ["clifford-split", "--builtin", "k3"], None),
    ("clifford-k3-6-table", ["clifford-split", "--builtin", "k3", "--q-eta", "6",
                             "--format", "table"], None),
    ("clifford-rank3", ["clifford-split", "--gram"], _RANK3),
    ("clifford-rank5", ["clifford-split", "--gram"], _RANK5_ZERO_DIAGONAL),
    ("clifford-hamilton", ["clifford-split", "--gram"],
     [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
    ("clifford-odd-primes", ["clifford-split", "--gram"],
     [["1", "0", "0"], ["0", "-3", "0"], ["0", "0", "7/4"]]),
    ("clifford-even-rank", ["clifford-split", "--gram"], [["0", "1"], ["1", "0"]]),
    ("clifford-degenerate", ["clifford-split", "--gram"],
     [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]]),
    ("clifford-no-input", ["clifford-split"], None),
]


def cli_digest(tmp_path, capsys, argv, payload):
    if payload is not None:
        path = tmp_path / "gram.json"
        path.write_text(json.dumps(payload))
        argv = [*argv, str(path)]
    code = main(argv)
    cap = capsys.readouterr()
    return _digest([str(code), cap.out, cap.err])


def test_cli_digests(tmp_path, capsys):
    got = {cid: cli_digest(tmp_path, capsys, argv, payload) for cid, argv, payload in CLI_CASES}
    assert got == CLI_DIGESTS
