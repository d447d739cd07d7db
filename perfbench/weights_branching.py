"""Workload ``weights-branching``: Freudenthal, exterior powers and restriction.

Layer: weights (intmat is barely used).  The Freudenthal recursion in
``irrep_weight_multiset`` dominates, above all the Sp8 highest weight
(3,2,1,0) that the g=4 Kuga-Satake pullback is checked against.

The highest weights are every small dominant weight of Sp2..Sp8 in a
seeded order, plus seeded repeats that hit the program's multiset cache.
Each distinct weight is computed once per round, so the Freudenthal work
does not depend on the seed; the repeats and the order do.
"""
from __future__ import annotations

from liftcalc.rootdata import sp_datum
from liftcalc.weights import (
    irrep_weight_multiset,
    kuga_satake_spin_pullback,
    spin_weight_multiset,
    verify_plethysm,
    verify_spin_branching,
    verify_spin_factorization,
    weyl_dimension,
)

import oracles as O
from harness import expect

NAME = "weights-branching"

STAIRCASE = {g: tuple(g - 1 - i for i in range(g)) for g in range(1, 5)}
POOL = (O.sp_dominant_weights(1, 8) + O.sp_dominant_weights(2, 3)
        + O.sp_dominant_weights(3, 2) + [(1, 0, 0, 0), (1, 1, 0, 0), STAIRCASE[4]])
REPEAT_SHARE = 0.25          # share of the highest-weight list that repeats an earlier entry
PLETHYSM_G = (1, 2, 3)
BRANCH_SO = ((3, 3), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 4), (5, 2))
BRANCH_GL = ((2, 2), (3, 2), (2, 4), (4, 2))
FACTOR = ((2, 3), (3, 3), (2, 2), (4, 5), (5, 6), (3, 8))
SPIN = tuple((n, f, h) for n in range(1, 10) for f, h in (("B", "both"), ("D", "plus"),
                                                           ("D", "minus"), ("D", "both")))


def make_inputs(rng, ctx):
    weights = list(POOL)
    rng.shuffle(weights)
    repeats = round(len(weights) * REPEAT_SHARE / (1 - REPEAT_SHARE))
    for _ in range(repeats):
        weights.insert(rng.randrange(1, len(weights) + 1), rng.choice(weights))
    # the g=4 pullback is compared with this multiset, so it comes first
    weights.remove(STAIRCASE[4])
    weights.insert(0, STAIRCASE[4])
    return {"weights": weights}


def branch_dim(c, d, variant):
    n = c * d
    if variant == "so" and n % 2:
        return 2 ** (n // 2)
    return 2 ** (n // 2 - 1)


def check_irrep(lam):
    g = len(lam)

    def check(ms):
        table = dict(ms.doubled)
        expect(ms.dimension == O.sp_weyl_dimension(lam),
               f"Sp{2 * g} {lam}: total {ms.dimension}, Weyl formula {O.sp_weyl_dimension(lam)}")
        if lam == STAIRCASE[g]:
            expect(ms.dimension == 2 ** (g * (g - 1)), f"staircase {lam}: total {ms.dimension}")
        expect(table.get(tuple(2 * x for x in lam)) == 1,
               f"Sp{2 * g} {lam}: highest weight multiplicity {table.get(tuple(2 * x for x in lam))}")
        expect(O.signed_permutation_invariant(table),
               f"Sp{2 * g} {lam}: multiset not invariant under signed permutations")
    return check


def check_branch(c, d, variant):
    want = branch_dim(c, d, variant)

    def check(rep):
        expect(rep.ok, f"{variant} branching failed at ({c}, {d})")
        expect(rep.lhs_dim == rep.rhs_dim == want,
               f"{variant} branching dims {rep.lhs_dim}, {rep.rhs_dim}, want {want}")
    return check


def check_factor(a, t):
    want = 2 ** ((a + t) // 2)

    def check(rep):
        expect(rep.ok, f"spin factorization failed at ({a}, {t})")
        expect(rep.lhs_dim == rep.rhs_dim == want,
               f"factorization dims {rep.lhs_dim}, {rep.rhs_dim}, want {want}")
    return check


def run_round(rec, inp, ctx):
    op = rec.op
    multisets = {}
    for lam in inp["weights"]:
        multisets[lam] = op("irrep_weight_multiset",
                            lambda: irrep_weight_multiset(sp_datum(len(lam)), lam),
                            check_irrep(lam))
    for lam in sorted(set(inp["weights"])):
        op("weyl_dimension", lambda: weyl_dimension(sp_datum(len(lam)), lam),
           lambda d: expect(d == O.sp_weyl_dimension(lam) and
                            (multisets[lam] is None or d == multisets[lam].dimension),
                            f"Sp{2 * len(lam)} {lam}: weyl_dimension {d}"))

    top = multisets[STAIRCASE[4]]

    def check_pullback(ms):
        expect(top is not None, "the Sp8 (3,2,1,0) multiset is missing")
        expect(ms.doubled == tuple((w, 2 * m) for w, m in top.doubled),
               "g=4 spin pullback is not twice the Sp8 (3,2,1,0) multiset")
    op("kuga_satake_spin_pullback", lambda: kuga_satake_spin_pullback(4), check_pullback)

    for g in PLETHYSM_G:
        want = 2 ** (g * (2 * g - 1))
        op("verify_plethysm", lambda: verify_plethysm(g),
           lambda rep: expect(rep.ok and rep.lhs_dim == rep.rhs_dim == want,
                              f"plethysm at g={g}: ok={rep.ok}, dims {rep.lhs_dim}, "
                              f"{rep.rhs_dim}, want {want}"))
    for c, d in BRANCH_SO:
        op("verify_spin_branching", lambda: verify_spin_branching(c, d),
           check_branch(c, d, "so"))
    for c, d in BRANCH_GL:
        op("verify_spin_branching", lambda: verify_spin_branching(c, d, variant="gl"),
           check_branch(c, d, "gl"))
    for a, t in FACTOR:
        op("verify_spin_factorization", lambda: verify_spin_factorization(a, t),
           check_factor(a, t))
    for n, family, half in SPIN:
        op("spin_weight_multiset", lambda: spin_weight_multiset(n, family, half),
           lambda ms: expect(ms.dimension == O.spin_dimension(n, family, half) and
                             all(m == 1 and all(abs(x) == 1 for x in w)
                                 for w, m in ms.doubled),
                             f"spin multiset {family}{n} {half}: dimension {ms.dimension}"))
