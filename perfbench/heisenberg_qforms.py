"""Workload ``heisenberg-qforms``: exact arithmetic in Z[zeta_n] and Hilbert symbols.

Layers: heisenberg, qforms.  No other workload runs them.  The
Heisenberg sweep covers every ordered pair of units for moduli 3 to 8
and does not depend on the seed; the seed shuffles it and draws the
quadratic forms.  Gram entries of G stay at most 18, and P^T G P is a
few +-1 steps away, so trial division in ``squarefree_class`` stays
bounded.
"""
from __future__ import annotations

from fractions import Fraction

from liftcalc.heisenberg import (
    elementwise_projective_conjugate,
    globally_twist_equivalent,
    rep_determinant,
    rep_determinant_matches_closed_form,
    rep_rho,
)
from liftcalc.qforms import (
    QForm,
    even_clifford_split,
    even_clifford_split_oracle,
    hilbert_symbol,
    invariants,
    k3_primitive,
)

import oracles as O
from harness import expect

NAME = "heisenberg-qforms"

MODULI = range(3, 9)
DET_MODULI = range(2, 13)
FORMS = 400                  # forms G given to invariants, each also as P^T G P
HILBERT_PAIRS = 300
CLIFFORD_FORMS = 300
K3_DEGREES = 4


def _nondegenerate_gram(rng, n, top):
    while True:
        a = [[rng.randint(-top, top) for _ in range(n)] for _ in range(n)]
        gram = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
        if O.det(gram) != 0:
            return gram


def _unimodular(rng, n):
    """P = (signed permutation) (lower unitriangular) (upper unitriangular).

    Two +-1 entries below the diagonal change the chain of leading minors
    that ``diagonalize`` pivots on, so P^T G P is diagonalized afresh, not
    as a reordering of G; with so few entries its minors, and so the trial
    division they cost, stay near those of G.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    pi = [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    lower = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 if n > 1 else 0):
        j, i = sorted(rng.sample(range(n), 2))
        lower[i][j] = rng.choice((1, -1))
    upper = [[1 if i == j else (rng.randint(-1, 1) if j > i else 0) for j in range(n)]
             for i in range(n)]
    return O.mat_mul(O.mat_mul(pi, lower), upper)


def make_inputs(rng, ctx):
    pairs = [(n, a, b) for n in MODULI for a in O.units(n) for b in O.units(n)]
    rng.shuffle(pairs)
    forms = []
    for _ in range(FORMS):
        n = rng.randint(1, 6)
        gram = _nondegenerate_gram(rng, n, 9)
        p = _unimodular(rng, n)
        pt = [list(r) for r in zip(*p)]
        forms.append((gram, O.mat_mul(O.mat_mul(pt, gram), p)))
    hilbert = []
    for _ in range(HILBERT_PAIRS):
        a = b = 0
        while a == 0 or b == 0:
            a, b = rng.randint(-60, 60), rng.randint(-60, 60)
        place = rng.choice(["inf", 2, 3, 5, 7, 11, 13])
        hilbert.append((a, b, place, O.hilbert_places(a, b)))
    clifford = []
    for _ in range(CLIFFORD_FORMS):
        clifford.append(_nondegenerate_gram(rng, rng.choice((1, 3, 5)), 3))
    k3 = rng.sample(range(1, 13), K3_DEGREES)
    return {"pairs": pairs, "forms": forms, "hilbert": hilbert,
            "clifford": clifford, "k3": k3}


def _mu2n(n, det):
    """sign * zeta_n^e as an exponent of zeta_2n, so equal values compare equal."""
    sign, e = det
    return (2 * e + (n if sign < 0 else 0)) % (2 * n)


def check_dets(n, alpha):
    want = O.heisenberg_determinants(n, alpha)

    def check(got):
        for k in ("A", "B", "Z"):
            expect(_mu2n(n, got[k]) == _mu2n(n, want[k]),
                   f"det rho({k}) at n={n}, alpha={alpha}: {got[k]}, want {want[k]}")
    return check


def _class(inv):
    """Rank, signature, discriminant and the places where the Hasse symbol is -1.

    The program lists symbols only at the places its diagonalization
    makes relevant; everywhere else the symbol is 1.
    """
    ramified = sorted((str(p) for p, s in inv.hasse.items() if s == -1))
    return inv.rank, inv.signature, inv.discriminant, ramified


def check_invariants(gram):
    sig = O.signature(gram)
    det = O.det(gram)

    def check(res):
        inv, inv_t = res
        expect(_class(inv) == _class(inv_t), f"invariants change under P^T G P: {gram}")
        expect(inv.signature == sig, f"signature {inv.signature}, want {sig} for {gram}")
        expect(O.is_rational_square(Fraction(inv.discriminant) * det),
               f"discriminant {inv.discriminant} times det {det} is not a square")
    return check


def hilbert_symbols(a, b, place, places):
    """(a, b) and (b, a) at every place where they can be -1, and (a, -a) at ``place``."""
    return ({v: (hilbert_symbol(a, b, v), hilbert_symbol(b, a, v)) for v in places},
            hilbert_symbol(a, -a, place))


def check_hilbert(a, b, place):
    def check(res):
        table, self_pair = res
        for v, (ab, ba) in table.items():
            expect(ab == ba and ab in (1, -1), f"({a}, {b})_{v} not symmetric: {ab}, {ba}")
        product = 1
        for ab, _ in table.values():
            product *= ab
        expect(product == 1, f"({a}, {b}) breaks the product formula: {table}")
        expect(self_pair == 1, f"({a}, {-a})_{place} = {self_pair}")
    return check


def run_round(rec, inp, ctx):
    op = rec.op
    for n, a, b in inp["pairs"]:
        op("elementwise_projective_conjugate",
           lambda: elementwise_projective_conjugate(rep_rho(n, a), rep_rho(n, b))[0],
           lambda same: expect(same, f"units {a}, {b} mod {n} not element-wise conjugate"))
        op("globally_twist_equivalent",
           lambda: globally_twist_equivalent(rep_rho(n, a), rep_rho(n, b)),
           lambda twist: expect(twist == (a == b),
                                f"twist verdict {twist} for units {a}, {b} mod {n}"))
    for n in DET_MODULI:
        for a in O.units(n):
            op("rep_determinant", lambda: rep_determinant(rep_rho(n, a)), check_dets(n, a))
            op("rep_determinant_matches_closed_form",
               lambda: rep_determinant_matches_closed_form(n, a),
               lambda ok: expect(ok, f"closed-form determinant table fails at n={n}, {a}"))

    for gram, moved in inp["forms"]:
        op("invariants",
           lambda: (invariants(QForm.from_gram(gram)), invariants(QForm.from_gram(moved))),
           check_invariants(gram))
    for a, b, place, places in inp["hilbert"]:
        op("hilbert_symbol", lambda: hilbert_symbols(a, b, place, places),
           check_hilbert(a, b, place))
    for gram in inp["clifford"]:
        q = QForm.from_gram(gram)
        table = op("even_clifford_split", lambda: even_clifford_split(q))
        op("even_clifford_split_oracle", lambda: even_clifford_split_oracle(q),
           lambda oracle: expect(table is not None and oracle.split == table.split,
                                 f"Witt table and structure constants disagree on {gram}"))
    for q_eta in inp["k3"]:
        op("even_clifford_split-k3", lambda: even_clifford_split(k3_primitive(q_eta)),
           lambda res: expect(res.split and res.matrix_size == 2 ** 10,
                              f"K3 lattice with q_eta={q_eta}: {res}"))
