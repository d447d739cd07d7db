import hashlib
import random
from fractions import Fraction
from math import comb

import pytest

from liftcalc.intmat import BoundError, InputError
from liftcalc.rootdata import (
    datum_by_name,
    simple_reflections,
    so_odd_datum,
    sp_datum,
    weyl_group,
)
from liftcalc.weights import (
    LatticeMap,
    WeightMultiset,
    center_action_parity,
    center_action_parity_by_enumeration,
    irrep_weight_multiset,
    kuga_satake_spin_pullback,
    restrict_multiset,
    so_block_embedding,
    sp_standard_multiset,
    spin_weight_multiset,
    verify_plethysm,
    verify_spin_branching,
    verify_spin_factorization,
    weyl_dimension,
)


def test_irrep_sp4_standard():
    ms = irrep_weight_multiset(sp_datum(2), (1, 0))
    assert ms.doubled == sp_standard_multiset(2).doubled


def test_irrep_sp4_five_dim():
    # the complement of the trivial representation in wedge^2(standard)
    ms = irrep_weight_multiset(sp_datum(2), (1, 1))
    assert ms.dimension == 5
    expected = WeightMultiset.from_weights(
        2, [(1, 1), (-1, -1), (1, -1), (-1, 1), (0, 0)])
    assert ms.doubled == expected.doubled


def test_irrep_sp6_64():
    ms = irrep_weight_multiset(sp_datum(3), (2, 1, 0))
    assert ms.dimension == 64
    assert weyl_dimension(sp_datum(3), (2, 1, 0)) == 64


def test_weyl_character_formula_oracle_sp6():
    # oracle: evaluate the Weyl character alternating sum at a generic point
    # numerically via exponentials of a random real functional
    import math
    rd = sp_datum(3)
    W = weyl_group(rd)
    # enumerate the full Weyl group as matrices with signs
    mats = {tuple(map(tuple, (r for r in mat.entries))): (mat, 1)
            for mat in [__import__("liftcalc.intmat", fromlist=["IntMatrix"]).IntMatrix.identity(3)]}
    frontier = list(mats.values())
    while frontier:
        nxt = []
        for mat, sgn in frontier:
            for g in W.generators:
                m2 = g * mat
                key = tuple(map(tuple, m2.entries))
                if key not in mats:
                    mats[key] = (m2, -sgn)
                    nxt.append((m2, -sgn))
        frontier = nxt
    assert len(mats) == 48
    lam = (2, 1, 0)
    rho = (3, 2, 1)
    x = (0.31, 0.17, 0.059)

    def expdot(v):
        return math.exp(sum(a * b for a, b in zip(v, x)))

    num = sum(s * expdot(m.apply(tuple(l + r for l, r in zip(lam, rho))))
              for m, s in mats.values())
    den = sum(s * expdot(m.apply(rho)) for m, s in mats.values())
    character = num / den
    # the same character evaluated on the Freudenthal multiset
    ms = irrep_weight_multiset(rd, lam)
    direct = sum(m * expdot(tuple(Fraction(c, 2) for c in w)) for w, m in ms.doubled)
    assert abs(character - direct) < 1e-9 * abs(direct)
    assert ms.dimension == 64


def test_irrep_dominance_required():
    with pytest.raises(InputError):
        irrep_weight_multiset(sp_datum(2), (0, 1))


def test_irrep_weyl_invariance_and_dimension_match():
    rng = random.Random(0)
    for name, lam in [("C2.sc", (2, 1)), ("A2.sc", (1, 1)), ("B2.adjoint", (2, 1))]:
        rd = datum_by_name(name)
        ms = irrep_weight_multiset(rd, lam)
        assert ms.dimension == weyl_dimension(rd, lam)
        gens = weyl_group(rd).generators
        table = dict(ms.doubled)
        for w, m in ms.doubled:
            img = gens[rng.randrange(len(gens))].apply(w)
            assert table.get(tuple(img)) == m


# sha256 of repr(ms.doubled), recorded with the level-by-level Freudenthal
# recursion over all weights; any rewrite must reproduce them byte for byte
FREUDENTHAL_GOLDEN = [
    ("G2.sc", (1, 0), "971bafb50687d76623ac287aa07bdbb0d5d5054cd636745774f2e7b751509252"),
    ("G2.sc", (0, 1), "a7875c951d894c8272596c09a4798f46f3ebc610589dd1aad245ccf86de118c9"),
    ("B3.sc", (0, 0, 1), "9fb3d06025046ca78358a0c71402b3b90d499e07ab5698336b8af43136a0c1d1"),
    ("D4.sc", (0, 0, 1, 0), "2c022459ccfe13d26c325b961b5f66d82232554dc1d37bffef53dd64b2017b2a"),
    ("F4.sc", (0, 0, 0, 1), "5649e35bb871b2b631f49d350227e67ff00a34e7f7b7066a004c67675be274c2"),
    ("E6.sc", (1, 0, 0, 0, 0, 0),
     "18da49e0bd1b45ef04924b664067a20b8e27436390819fe43484ecc98f7ca879"),
    # rank 3 > semisimple rank 2
    ("GSp4", (1, 0, 0), "bf52cc1e10619f7344f54233a97905f18d754fd4f583766aea5ff44d93122577"),
    ("GL3", (2, 1, 0), "75436417321e15818cbad5596fc9a88dae4ff0ea78c24cf79877cacf4bde3ffe"),
    ("C3.sc", (2, 1, 0), "b83cadedbb3966d8b14465ff2e7c0881010e535097f8af6162f55262e302e8e2"),
    ("B2.adjoint", (Fraction(1, 2), Fraction(1, 2)),
     "aaf1e232c7fe230c59b6c2c5ba82855207822c2b1383105b7d2abbed89a489b7"),
    ("C4.sc", (3, 2, 1, 0), "753c3f7061ac1fa9270e6d12f9f053a0b3f021ef493032c39313ce12cf6919f6"),
]


def test_freudenthal_golden():
    for name, lam, digest in FREUDENTHAL_GOLDEN:
        ms = irrep_weight_multiset(datum_by_name(name), lam)
        assert hashlib.sha256(repr(ms.doubled).encode()).hexdigest() == digest, (name, lam)


@pytest.mark.parametrize("name,lam,dim", [
    # the simple reflections of C5 generate the signed permutations
    ("C5.sc", (4, 3, 2, 1, 0), 2 ** 20),
    ("E7.sc", (0, 0, 0, 0, 0, 0, 1), 56),
    ("E8.sc", (0, 0, 0, 0, 0, 0, 0, 1), 248),
])
def test_irrep_large_simple_reflection_invariance(name, lam, dim):
    rd = datum_by_name(name)
    ms = irrep_weight_multiset(rd, lam)
    assert ms.dimension == weyl_dimension(rd, lam) == dim
    table = dict(ms.doubled)
    for s in simple_reflections(rd):
        for w, m in ms.doubled:
            assert table.get(tuple(s.apply(w))) == m


@pytest.mark.parametrize("g,expected", [(1, 1), (2, 4), (3, 64), (4, 4096), (5, 1048576)])
def test_weyl_dimension_telescopes(g, expected):
    lam = tuple(g - 1 - i for i in range(g))
    assert weyl_dimension(sp_datum(g), lam) == 2 ** (g * (g - 1)) == expected


def test_weyl_dimension_trivial():
    for name in ("A1.sc", "C3.sc", "B3.adjoint"):
        rd = datum_by_name(name)
        assert weyl_dimension(rd, (0,) * rd.rank) == 1


def test_spin_multisets():
    b2 = spin_weight_multiset(2, "B")
    assert b2.dimension == 4
    assert b2.doubled == tuple(sorted(
        ((s1, s2), 1) for s1 in (-1, 1) for s2 in (-1, 1)))
    d2p = spin_weight_multiset(2, "D", "plus")
    assert d2p.doubled == (((-1, -1), 1), ((1, 1), 1))
    d4 = spin_weight_multiset(4, "D", "both")
    assert d4.dimension == 16
    # oracle: the two half-spins of D4 via Freudenthal on the fork weights
    rd = datum_by_name("D4.sc")
    # in the fundamental-weight basis the half-spin highest weights are the
    # fork nodes; their dimensions are 8 each
    assert weyl_dimension(rd, (0, 0, 1, 0)) == 8
    assert weyl_dimension(rd, (0, 0, 0, 1)) == 8


def test_spin_matches_freudenthal_b2():
    # spin of so5 = irreducible of Sp-dual...: check against the B2 datum
    rd = so_odd_datum(2)
    ms = irrep_weight_multiset(rd, (Fraction(1, 2), Fraction(1, 2)))
    assert ms.doubled == spin_weight_multiset(2, "B").doubled


def test_spin_matches_freudenthal_d4():
    rd = datum_by_name("D4.sc")
    both = irrep_weight_multiset(rd, (0, 0, 1, 0)).add(
        irrep_weight_multiset(rd, (0, 0, 0, 1)))
    assert both.dimension == 16


def test_restrict_identity():
    W = spin_weight_multiset(2, "B")
    assert restrict_multiset(LatticeMap.identity(2), W).doubled == W.doubled


def test_restrict_so5_to_so2_x_so3():
    rep = verify_spin_factorization(2, 3)
    assert rep.ok and rep.lhs_dim == 4


def test_restrict_so6_to_so3_x_so3():
    rep = verify_spin_factorization(3, 3)
    assert rep.ok and rep.lhs_dim == 8


def test_spin_factorization_2_2():
    rep = verify_spin_factorization(2, 2)
    assert rep.ok and rep.lhs_dim == 4


def test_multiset_algebra():
    std = sp_standard_multiset(2)
    w2 = std.exterior_power(2)
    assert w2.dimension == 6
    five = irrep_weight_multiset(sp_datum(2), (1, 1))
    assert w2.doubled == five.add(WeightMultiset.trivial(2)).doubled
    assert std.tensor(WeightMultiset.trivial(2)).doubled == std.doubled
    six = WeightMultiset.from_doubled(1, [((0,), 6)])
    assert six.full_exterior_algebra().dimension == 64
    assert std.exterior_power(3).dimension == comb(4, 3)


def test_exterior_power_multiplicity_aware():
    # two zero slots: wedge^2 contains the zero weight once from the pair
    ms = WeightMultiset.from_doubled(1, [((0,), 2), ((2,), 1)])
    w2 = ms.exterior_power(2)
    assert w2.dimension == 3
    assert dict(w2.doubled) == {(0,): 1, (2,): 2}


@pytest.mark.parametrize("cd", [(3, 3), (2, 2), (2, 3), (3, 2)])
def test_spin_branching(cd):
    c, d = cd
    rep = verify_spin_branching(c, d)
    assert rep.ok, rep


def test_spin_branching_single_block_trivial():
    rep = verify_spin_branching(2, 1)
    assert rep.ok and rep.lhs_dim == rep.rhs_dim == 1


def test_spin_branching_3_3_shape():
    rep = verify_spin_branching(3, 3)
    assert rep.lhs_dim == 16  # 2^1 * (2 x 2 x 2)


def test_spin_branching_gl_variant():
    for c, d in [(2, 2), (3, 2), (2, 4)]:
        rep = verify_spin_branching(c, d, variant="gl")
        assert rep.ok, rep


def test_spin_branching_bound():
    with pytest.raises(BoundError):
        verify_spin_branching(7, 7)


def test_kuga_satake_g2_pullback_is_standard():
    ms = kuga_satake_spin_pullback(2)
    assert ms.doubled == sp_standard_multiset(2).doubled


def test_kuga_satake_g1_degenerate():
    ms = kuga_satake_spin_pullback(1)
    assert ms.doubled == WeightMultiset.trivial(1).doubled


def test_kuga_satake_g3_halves():
    lam = (2, 1, 0)
    V = irrep_weight_multiset(sp_datum(3), lam)
    plus = kuga_satake_spin_pullback(3, "plus")
    minus = kuga_satake_spin_pullback(3, "minus")
    assert plus.dimension == minus.dimension == 64
    assert plus.doubled == V.doubled
    assert minus.doubled == V.doubled
    both = kuga_satake_spin_pullback(3, "both")
    assert both.doubled == V.scalar_multiple(2).doubled


def test_kuga_satake_alternative_pairings_give_same_verdicts():
    # permuting which +- pair lands on which coordinate does not change the
    # pulled-back multiset
    from liftcalc.weights import _spin_of_so, _wedge2_weight_pairs
    from liftcalc.intmat import IntMatrix
    g = 2
    N = comb(2 * g, 2) - 1
    n = N // 2
    pairs = _wedge2_weight_pairs(g)
    rng = random.Random(9)
    base = kuga_satake_spin_pullback(g).doubled
    for _ in range(5):
        perm = list(range(len(pairs)))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in perm]
        rows = []
        for i in range(g):
            rows.append([2 * signs[k] * pairs[perm[k]][i] if k < len(pairs) else 0
                         for k in range(n)])
        f = LatticeMap(n, g, IntMatrix(g, n, tuple(tuple(r) for r in rows)))
        ms = restrict_multiset(f, _spin_of_so(N, "both"))
        assert ms.doubled == base


@pytest.mark.parametrize("g,expected", [
    (1, "trivial"), (2, "central_element_c"), (3, "central_element_c"),
    (4, "trivial"), (5, "trivial"), (6, "central_element_c"),
])
def test_center_action_parity(g, expected):
    assert center_action_parity(g) == expected
    assert (g % 4 in (2, 3)) == (expected == "central_element_c")


@pytest.mark.parametrize("g", [1, 2, 3])
def test_center_action_parity_full_enumeration(g):
    signs = center_action_parity_by_enumeration(g)
    assert len(signs) == 1
    sign = signs.pop()
    assert (sign == -1) == (center_action_parity(g) == "central_element_c")


@pytest.mark.parametrize("g,dim", [(1, 2), (2, 64), (3, 32768)])
def test_plethysm(g, dim):
    rep = verify_plethysm(g)
    assert rep.ok
    assert rep.lhs_dim == rep.rhs_dim == dim


def test_plethysm_bound():
    with pytest.raises(BoundError):
        verify_plethysm(4)


def test_restrict_preserves_dimension():
    emb = so_block_embedding([3, 3, 3])
    W = spin_weight_multiset(4, "B")
    assert restrict_multiset(emb, W).dimension == W.dimension


def test_denominator_violation():
    f = LatticeMap.from_rows([[Fraction(1, 2)]])
    with pytest.raises(InputError):
        restrict_multiset(f, WeightMultiset.from_doubled(1, [((1,), 1)]))


def test_kuga_satake_g4_pullback():
    # spin of so27 pulled back to Sp8
    # is exactly two copies of the 4096-dimensional irreducible
    V = irrep_weight_multiset(sp_datum(4), (3, 2, 1, 0))
    assert V.dimension == weyl_dimension(sp_datum(4), (3, 2, 1, 0)) == 4096
    pull = kuga_satake_spin_pullback(4)
    assert pull.doubled == V.scalar_multiple(2).doubled
