import hashlib
import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from test_rootdata import coroot_table_by_dual_walk, simple_reflections, weyl_group

from liftcalc import weights
from liftcalc.intmat import BoundError, InputError, IntMatrix, invert_unimodular
from liftcalc.rootdata import (
    BasedRootDatum,
    datum_by_name,
    half_sum_positive_roots,
    positive_roots,
    so_odd_datum,
    sp_datum,
)
from liftcalc.weights import (
    MAX_PLETHYSM_G,
    MAX_SPIN_RANK,
    LatticeMap,
    WeightMultiset,
    _spin_of_so,
    _spin_restriction,
    center_action_parity,
    gl_block_embedding,
    irrep_weight_multiset,
    kuga_satake_embedding,
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


def multiset_from_weights(rank, weights):
    """A multiset with one slot per listed (possibly half-integral) weight vector."""
    items = []
    for w in weights:
        dw = []
        for x in w:
            d = 2 * Fraction(x)
            if d.denominator != 1:
                raise InputError("weights must lie in half the integral lattice")
            dw.append(int(d))
        items.append((tuple(dw), 1))
    return WeightMultiset.from_doubled(rank, items)


def trivial_multiset(rank):
    return WeightMultiset.from_doubled(rank, [((0,) * rank, 1)])


def identity_map(n):
    return LatticeMap(n, n, IntMatrix.from_rows(
        [[2 if i == j else 0 for j in range(n)] for i in range(n)]))


def center_action_parity_by_enumeration(g):
    """Signs of every pulled-back spin weight at -1, by direct enumeration."""
    ms = kuga_satake_spin_pullback(g)
    signs = set()
    for w, _ in ms.doubled:
        s = sum(w)
        if s % 2 != 0:
            raise AssertionError("weight does not evaluate to a sign at -1")
        signs.add((-1) ** ((s // 2) % 2))
    return signs


def test_irrep_sp4_standard():
    ms = irrep_weight_multiset(sp_datum(2), (1, 0))
    assert ms.doubled == sp_standard_multiset(2).doubled


def test_irrep_sp4_five_dim():
    # the complement of the trivial representation in wedge^2(standard)
    ms = irrep_weight_multiset(sp_datum(2), (1, 1))
    assert ms.dimension == 5
    expected = multiset_from_weights(
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


def weyl_alternants(rd, lam2):
    """sum_w eps(w) e^{w(rho)} and sum_w eps(w) e^{w(lam + rho)}, in doubled coordinates.

    Each Weyl element w is reached once, by its image of the regular vector
    2 rho-hat, and eps(w) flips with every simple reflection applied.  The
    Laurent polynomials are dicts from doubled exponents to coefficients.
    """
    W = weyl_group(rd)
    rho2 = tuple(int(2 * c) for c in half_sum_positive_roots(rd))
    top2 = tuple(a + b for a, b in zip(lam2, rho2))
    images = {rho2: (top2, 1)}
    frontier = [rho2]
    while frontier:
        nxt = []
        for r in frontier:
            t, sign = images[r]
            for s in W.generators:
                r2 = s.apply(r)
                if r2 not in images:
                    images[r2] = (s.apply(t), -sign)
                    nxt.append(r2)
        frontier = nxt
    assert len(images) == W.order
    return ({r: sign for r, (_, sign) in images.items()},
            {t: sign for t, sign in images.values()})


def fundamental_weights(rd):
    """The weights pairing to delta_ij with the simple coroots of a simply connected datum."""
    inv = invert_unimodular(IntMatrix.from_rows(rd.simple_coroots))
    omegas = [inv.col(i) for i in range(rd.rank)]
    for i, om in enumerate(omegas):
        assert [sum(a * b for a, b in zip(om, av)) for av in rd.simple_coroots] == \
            [int(i == j) for j in range(rd.rank)]
    return omegas


@pytest.mark.parametrize("name", [
    "A1.sc", "A2.sc", "A3.sc", "A4.sc", "B2.sc", "B3.sc", "B4.sc",
    "C2.sc", "C3.sc", "C4.sc", "D4.sc", "G2.sc",
    pytest.param("F4.sc", marks=pytest.mark.slow),
])
def test_weyl_character_formula_exact(name):
    # A_{lam + rho} = A_rho * sum_mu m(mu) e^mu as integer Laurent polynomials,
    # for every fundamental weight lam
    rd = datum_by_name(name)
    for om in fundamental_weights(rd):
        ms = irrep_weight_multiset(rd, om)
        a_rho, a_top = weyl_alternants(rd, tuple(2 * x for x in om))
        rhs = {}
        for r, sign in a_rho.items():
            for mu, m in ms.doubled:
                key = tuple(a + b for a, b in zip(r, mu))
                rhs[key] = rhs.get(key, 0) + sign * m
        assert {k: v for k, v in rhs.items() if v} == a_top, (name, om)


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


def doubled_digest(multisets):
    """sha256 of the repr of the doubled tuples of a list of multisets."""
    return hashlib.sha256(repr([ms.doubled for ms in multisets]).encode()).hexdigest()


# every dominant Sp_2g weight l_1 >= ... >= l_g >= 0 that the weights-branching
# benchmark draws: l_1 <= 8, 3, 2 for g = 1, 2, 3, and three weights of Sp8
SP_BENCH_WEIGHTS = {
    1: [(a,) for a in range(8, -1, -1)],
    2: [(a, b) for a in range(3, -1, -1) for b in range(a, -1, -1)],
    3: [(a, b, c) for a in range(2, -1, -1) for b in range(a, -1, -1) for c in range(b, -1, -1)],
    4: [(1, 0, 0, 0), (1, 1, 0, 0), (3, 2, 1, 0)],
}

# doubled_digest of each group of multisets below; any rewrite of the weights
# layer must reproduce them byte for byte
SP_IRREP_DIGESTS = {
    1: "05bd44a8a7741892a47f80ee0c0bc44741ef3f52f4ae3cd5322875145f9179d9",
    2: "b35ab2534c9f964046fd5b3c707ee4ebf6659dabc5ec3c017ced0906e4b99311",
    3: "07213583830754c91323cb23ee1a867886dc00d55e92419b921664d08eb53050",
    4: "c97d5f8f824e138f6ef21aff5a252e45452c25291320867b8c22425d9b39dd06",
}


@pytest.mark.parametrize("g", sorted(SP_IRREP_DIGESTS))
def test_sp_irrep_digests(g):
    multisets = [irrep_weight_multiset(sp_datum(g), lam) for lam in SP_BENCH_WEIGHTS[g]]
    assert doubled_digest(multisets) == SP_IRREP_DIGESTS[g]


# spin_weight_multiset(n, family, half) for n = 0, ..., 10
SPIN_DIGESTS = {
    ("B", "both"): "6a5e4c63c0d8bd40d13ad983a6a27a1c23e3836c3bcb134e5c7d0dea929f7411",
    ("D", "plus"): "8f81598cfd277adfc79aac10a854bd187ba12a3728f10050b61c15637879259a",
    ("D", "minus"): "3f93d87b9abf8a4b93a8d1cf3d59ac55944ea805f4cd1c7c5693b71dc0e6820e",
    ("D", "both"): "6a5e4c63c0d8bd40d13ad983a6a27a1c23e3836c3bcb134e5c7d0dea929f7411",
}


@pytest.mark.parametrize("family,half", sorted(SPIN_DIGESTS))
def test_spin_multiset_digests(family, half):
    multisets = [spin_weight_multiset(n, family, half) for n in range(11)]
    assert doubled_digest(multisets) == SPIN_DIGESTS[family, half]


# both sides of the plethysm identity, before the 2^g scaling:
# wedge^*(wedge^2 std) and V (x) V with V of highest weight (g-1, ..., 1, 0)
PLETHYSM_SIDE_DIGESTS = {
    1: ("6559701bf2396cd5f591a8f90ce40293370be1295d20a027d4470e0ea9f767e1",
        "0c612a8dd780f822a9ae68983a59171713a6573d01af08f39a9863822f509568"),
    2: ("2d14c318b645dc1c279aba03118e68342fee1e0e70d542a4ef5c3c297983a3a3",
        "7d8eca380ae34e1ca80cfef21421d3e5aafd2d886567af028864a976855c93b5"),
    3: ("003cfd3c04ba40e3869600f818af1d987a7189814a97aadf8090b3f1a2b6b62a",
        "87ca3786a0f797082f61683f1e87de0e62bc280608b9432d7abd405447d7467c"),
}


@pytest.mark.parametrize("g", sorted(PLETHYSM_SIDE_DIGESTS))
def test_plethysm_side_digests(g):
    lhs = sp_standard_multiset(g).exterior_power(2).full_exterior_algebra()
    V = irrep_weight_multiset(sp_datum(g), tuple(g - 1 - i for i in range(g)))
    assert (doubled_digest([lhs]), doubled_digest([V.tensor(V)])) == PLETHYSM_SIDE_DIGESTS[g]


def seeded_multiset_with_repeats(seed):
    """A small multiset built from weight draws that repeat, merged by from_doubled."""
    rng = random.Random(900 + seed)
    rank = rng.randint(1, 3)
    return WeightMultiset.from_doubled(rank, [
        (tuple(rng.randint(-1, 1) for _ in range(rank)), rng.randint(1, 3))
        for _ in range(rng.randint(3, 6))])


# every exterior power k = 0, ..., dimension + 1 of each seeded multiset
EXTERIOR_POWER_DIGESTS = {
    0: "e1daf5fc12ad856138295b70ccf1a11f37763c4c3701dacb695d597ebf969f71",
    1: "89f14cbd10d6d508c7dc2c4c23893c4c920605fbd29146a292f1f0ddd8738c91",
    2: "5db6ef8f88b390d89186849c72b34989b045264a6b90deec3dc1519a427c0b9b",
    3: "d787dcfe05482caf7d077c883b1738e5aec219d8d32ed12328d6d8fe5530244b",
    4: "6ca6f20763cca8941e033b3706a073ec76af94bf93cdf99a2696fee28cd56f6b",
    5: "a98696e24b2b130e03552d31474cdc3c5aa3e9b72dd9287a59c68c148e470939",
}


@pytest.mark.parametrize("seed", sorted(EXTERIOR_POWER_DIGESTS))
def test_exterior_power_digests(seed):
    ms = seeded_multiset_with_repeats(seed)
    assert any(m > 1 for _, m in ms.doubled)
    powers = [ms.exterior_power(k) for k in range(ms.dimension + 2)]
    assert doubled_digest(powers) == EXTERIOR_POWER_DIGESTS[seed]


KUGA_SATAKE_PULLBACK_DIGESTS = {
    1: "0c612a8dd780f822a9ae68983a59171713a6573d01af08f39a9863822f509568",
    2: "07aab01a0a83b3ffdc1b8dd2df1e6b87ee7097a8f76a057a94cf5267c2a96022",
    3: "2f7db4befd135c1ca4cd9e9844aee8362e020695d8697a4a64a9e358affab288",
    4: "3c314bec6a5a2c9879d12c207c4539e27f622c77237bf30e8bcab8755a9a8323",
}


@pytest.mark.parametrize("g", sorted(KUGA_SATAKE_PULLBACK_DIGESTS))
def test_kuga_satake_pullback_digests(g):
    assert doubled_digest([kuga_satake_spin_pullback(g)]) == KUGA_SATAKE_PULLBACK_DIGESTS[g]


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
    assert restrict_multiset(identity_map(2), W).doubled == W.doubled


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
    assert w2.doubled == five.add(trivial_multiset(2)).doubled
    assert std.tensor(trivial_multiset(2)).doubled == std.doubled
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


@pytest.mark.parametrize("c,d,dim,description", [
    (3, 3, 16, "spin(so9) | so3^3 = 2^1 (box of spins)"),
    (3, 5, 128, "spin(so15) | so3^5 = 2^2 (box of spins)"),
    (3, 1, 2, "spin(so3) | so3^1 = 2^0 (box of spins)"),
    (3, 2, 4, "plus-half-spin(so6) | so3^2 = 2^0 (box of spins)"),
    (5, 4, 512, "plus-half-spin(so20) | so5^4 = 2^1 (box of spins)"),
    (2, 3, 4, "plus-half-spin(so6) | so2^3 = even-sign half-spin blocks"),
    (4, 2, 8, "plus-half-spin(so8) | so4^2 = even-sign half-spin blocks"),
])
def test_spin_branching_descriptions(c, d, dim, description):
    rep = verify_spin_branching(c, d)
    assert rep.ok and rep.lhs_dim == rep.rhs_dim == dim
    assert rep.description == description


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


@pytest.mark.parametrize("c", range(2, 16))
def test_spin_branching_gl_one_pair_of_blocks(c):
    rep = verify_spin_branching(c, 2, variant="gl")
    assert rep.ok and rep.lhs_dim == rep.rhs_dim == 2 ** (c - 1)
    assert rep.description == f"plus-half-spin(so{2 * c}) | gl{c}^1 = even exterior powers"


def test_gl_branching_folds_the_exterior_algebra_once(monkeypatch):
    # every exterior degree of the block comes from one fold, not one per degree
    calls = []
    fold, power = WeightMultiset._exterior_layers, WeightMultiset.exterior_power
    monkeypatch.setattr(WeightMultiset, "_exterior_layers",
                        lambda self, k: calls.append(("fold", k)) or fold(self, k))
    monkeypatch.setattr(WeightMultiset, "exterior_power",
                        lambda self, k: calls.append(("power", k)) or power(self, k))
    for c, d in ((2, 2), (5, 2), (9, 2), (3, 4)):
        calls.clear()
        assert verify_spin_branching(c, d, variant="gl").ok
        assert calls == [("fold", c)]


def exterior_power_by_subsets(ms, k):
    """k-th exterior power by listing every k-subset of the weight slots."""
    slots = [w for w, m in ms.doubled for _ in range(m)]
    acc = {}
    for sub in combinations(slots, k):
        w = tuple(map(sum, zip(*sub))) if sub else (0,) * ms.rank
        acc[w] = acc.get(w, 0) + 1
    return tuple(sorted(acc.items()))


@pytest.mark.parametrize("seed", range(6))
def test_exterior_power_matches_subsets(seed):
    rng = random.Random(700 + seed)
    rank = rng.randint(1, 3)
    ms = WeightMultiset.from_doubled(rank, [
        (tuple(rng.randint(-2, 2) for _ in range(rank)), rng.randint(1, 3))
        for _ in range(rng.randint(1, 4))])
    for k in range(ms.dimension + 2):
        assert ms.exterior_power(k).doubled == exterior_power_by_subsets(ms, k)


def test_spin_branching_bound():
    with pytest.raises(BoundError):
        verify_spin_branching(7, 7)


@pytest.mark.parametrize("d,dim", [(14, 2 ** 20), (15, 2 ** 22)])
def test_spin_branching_bound_counts_independent_columns(d, dim):
    # so3^d has rank 21 or 22 but only d independent columns, within MAX_SPIN_RANK;
    # the sides are the plus half-spin of so42 and the spin of so45
    rep = verify_spin_branching(3, d)
    assert rep.ok and rep.lhs_dim == rep.rhs_dim == dim


def test_kuga_satake_g2_pullback_is_standard():
    ms = kuga_satake_spin_pullback(2)
    assert ms.doubled == sp_standard_multiset(2).doubled


def test_kuga_satake_g1_degenerate():
    ms = kuga_satake_spin_pullback(1)
    assert ms.doubled == trivial_multiset(1).doubled


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


@pytest.mark.parametrize("g,dim", [(1, 2), (2, 64), (3, 32768), (4, 2 ** 28)])
def test_plethysm(g, dim):
    rep = verify_plethysm(g)
    assert rep.ok
    assert rep.lhs_dim == rep.rhs_dim == dim


def test_plethysm_bound():
    assert MAX_PLETHYSM_G == 4
    with pytest.raises(BoundError, match="g=5 > 4"):
        verify_plethysm(5)


def test_restrict_preserves_dimension():
    emb = so_block_embedding([3, 3, 3])
    W = spin_weight_multiset(4, "B")
    assert restrict_multiset(emb, W).dimension == W.dimension


@pytest.mark.parametrize("items,message", [
    # a weight of the wrong length was stored, and tensor then zipped it short
    ([((1, 2), 1)], "has length 2, expected 1"),
    ([((), 1)], "has length 0, expected 1"),
    ([((1,), 1.5)], "expected an integer"),
    ([((1,), True)], "expected an integer"),
    ([((1,), 0)], "multiplicities must be positive"),
    ([((1,), -1)], "multiplicities must be positive"),
])
def test_from_doubled_refuses_bad_shapes_and_multiplicities(items, message):
    with pytest.raises(InputError, match=message):
        WeightMultiset.from_doubled(1, items)


def test_lattice_map_source_rank_must_match_the_rows():
    with pytest.raises(InputError, match="rows have length 2 but source_rank is 3"):
        LatticeMap.from_rows([[1, 0]], source_rank=3)
    assert LatticeMap.from_rows([[1, 0]], source_rank=2) == LatticeMap.from_rows([[1, 0]])
    empty = LatticeMap.from_rows([], source_rank=3)
    assert (empty.source_rank, empty.target_rank) == (3, 0)


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


@pytest.mark.parametrize("lam", [(3, 2, 1, 0, 9), (1, 2)])
def test_weight_length_must_match_rank(lam):
    rd = datum_by_name("C3.sc")
    for fn in (weyl_dimension, irrep_weight_multiset):
        with pytest.raises(InputError, match=f"length {len(lam)} but the datum has rank 3"):
            fn(rd, lam)


def weyl_dimension_by_fractions(rd, lam):
    """The Weyl product formula over Fractions, with rho-hat and the coroot walk."""
    lamf = tuple(Fraction(x) for x in lam)
    if len(lamf) != rd.rank:
        raise InputError(f"highest weight has length {len(lamf)} but the datum has rank {rd.rank}")
    lam2 = tuple(2 * x for x in lamf)
    if any(x.denominator != 1 for x in lam2):
        raise InputError("highest weight must be at most half-integral")
    if any(sum(int(x) * c for x, c in zip(lam2, av)) < 0 for av in rd.simple_coroots):
        raise InputError("highest weight must be dominant")
    if any(sum(x * c for x, c in zip(lamf, av)).denominator != 1 for av in rd.simple_coroots):
        raise InputError("highest weight must pair to an integer with every simple coroot")
    rho = half_sum_positive_roots(rd)
    coroot_of = coroot_table_by_dual_walk(rd)
    dim = Fraction(1)
    for b in positive_roots(rd):
        bv = coroot_of[b]
        num = sum((l + r) * c for l, r, c in zip(lamf, rho, bv))
        den = sum(r * c for r, c in zip(rho, bv))
        dim *= Fraction(num, den)
    if dim.denominator != 1:
        raise AssertionError("Weyl dimension did not come out integral")
    return int(dim)


@pytest.mark.parametrize("name", [
    "A1.sc", "A3.adjoint", "B2.adjoint", "B3.adjoint", "C2.sc", "C3.sc", "D4.sc",
    "G2.sc", "F4.sc", "E6.sc", "GL3", "GSp4", "SO7",
])
def test_weyl_dimension_matches_fractions(name):
    # doubled weights in a box: integral, half-integral (the spin weights of
    # B_n in e coordinates among them) and, up to rank 3, non-dominant ones
    rd = datum_by_name(name)
    rng = random.Random(name)
    box = list(product(range(-1 if rd.rank <= 3 else 0, 5), repeat=rd.rank))
    for lam2 in (box if len(box) <= 300 else rng.sample(box, 300)):
        lam = tuple(Fraction(x, 2) for x in lam2)
        try:
            want = weyl_dimension_by_fractions(rd, lam)
        except (InputError, AssertionError) as exc:
            with pytest.raises(type(exc)) as info:
                weyl_dimension(rd, lam)
            assert str(info.value) == str(exc), (name, lam)
        else:
            assert weyl_dimension(rd, lam) == want, (name, lam)


def test_weyl_dimension_of_spin_weights():
    for n in range(1, 7):
        half = (Fraction(1, 2),) * n
        assert weyl_dimension(datum_by_name(f"B{n}.adjoint"), half) == 2 ** n
        assert weyl_dimension_by_fractions(datum_by_name(f"B{n}.adjoint"), half) == 2 ** n


@pytest.mark.parametrize("lam,message", [
    ((3, 2, 1, 0, 9), "highest weight has length 5 but the datum has rank 3"),
    ((Fraction(1, 3), 0, 0), "highest weight must be at most half-integral"),
    ((0, 1, 0), "highest weight must be dominant"),
])
def test_highest_weight_errors_are_unchanged(lam, message):
    rd = datum_by_name("C3.sc")
    for fn in (weyl_dimension, weyl_dimension_by_fractions, irrep_weight_multiset):
        with pytest.raises(InputError) as info:
            fn(rd, lam)
        assert str(info.value) == message


@pytest.mark.parametrize("name,lam", [
    ("A1.sc", (Fraction(1, 2),)),
    ("C3.sc", (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))),
    ("B3.adjoint", (Fraction(3, 2), Fraction(1, 2), 0)),
    ("GL3", (Fraction(3, 2), 1, 0)),
])
def test_half_integral_weight_off_the_weight_lattice_is_refused(name, lam):
    # a weight pairing to a non-integer with a simple coroot is no highest
    # weight: refused before Freudenthal or the Weyl product starts
    rd = datum_by_name(name)
    message = "highest weight must pair to an integer with every simple coroot"
    for fn in (weyl_dimension, weyl_dimension_by_fractions, irrep_weight_multiset):
        with pytest.raises(InputError) as info:
            fn(rd, lam)
        assert str(info.value) == message


def test_half_integral_weights_on_the_weight_lattice_are_kept():
    # (1/2, 1/2) pairs to 0 with the GL2 coroot, and (1/2,)*3 is the B3 spin weight
    assert weyl_dimension(datum_by_name("GL2"), (Fraction(1, 2), Fraction(1, 2))) == 1
    assert irrep_weight_multiset(datum_by_name("B3.adjoint"), (Fraction(1, 2),) * 3).dimension == 8


@pytest.mark.parametrize("name,lam", [
    ("C3.sc", (2, 1, 0)), ("C4.sc", (3, 2, 1, 0)), ("G2.sc", (1, 1)), ("GL3", (2, 0, -1)),
    ("GSp4", (1, 0, 0)), ("B3.adjoint", (1, 1, 0)), ("A3.sc", (0, 2, 1)),
])
def test_integer_and_fraction_weights_agree(name, lam):
    # int, Fraction and mixed entries double to one tuple of ints, hence one
    # multiset and one dimension
    rd = datum_by_name(name)
    forms = [lam, tuple(map(Fraction, lam)),
             tuple(Fraction(x) if i % 2 else x for i, x in enumerate(lam))]
    doubled, multisets, dims = set(), set(), set()
    for form in forms:
        lam2 = weights._doubled_highest_weight(rd, form)
        assert all(type(x) is int for x in lam2)
        doubled.add(lam2)
        weights._freudenthal.cache_clear()
        multisets.add(irrep_weight_multiset(rd, form).doubled)
        dims.add(weyl_dimension(rd, form))
    assert doubled == {tuple(2 * x for x in lam)}
    assert len(multisets) == len(dims) == 1
    assert dims == {sum(m for _, m in next(iter(multisets)))}


@pytest.mark.parametrize("lam,message", [
    ((1, 2), "highest weight has length 2 but the datum has rank 3"),
    ((Fraction(1, 3), 0), "highest weight has length 2 but the datum has rank 3"),
    ((1, 0, 0, Fraction(1, 3)), "highest weight has length 4 but the datum has rank 3"),
    ((1, Fraction(1, 3), 0), "highest weight must be at most half-integral"),
    ((1, Fraction(1, 4), 0), "highest weight must be at most half-integral"),
    ((1, 2, 0), "highest weight must be dominant"),
    ((Fraction(1, 2), 0, 0), "highest weight must pair to an integer with every simple coroot"),
])
def test_weight_errors_keep_their_order(lam, message):
    # a length mismatch is reported before a weight off the half-integers
    rd = datum_by_name("C3.sc")
    for fn in (weyl_dimension, irrep_weight_multiset):
        with pytest.raises(InputError) as info:
            fn(rd, lam)
        assert str(info.value) == message


# The restriction of a spin multiset is a convolution; the enumeration of
# all 2^n sign vectors through restrict_multiset is its oracle.

def _by_enumeration(f, N, half):
    return restrict_multiset(f, _spin_of_so(N, half))


# (c, d) of so_c^d, (c, d0) of gl_c^d0 and (a, t) of so_a x so_t: every shape
# the benchmark and the README examples branch along
BRANCH_SHAPES = (
    [(so_block_embedding([c] * d), c * d)
     for c, d in ((3, 3), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 4), (5, 2))]
    + [(gl_block_embedding(c, d0), 2 * c * d0) for c, d0 in ((2, 1), (3, 1), (2, 2), (4, 1))]
    + [(so_block_embedding([a, t]), a + t)
       for a, t in ((2, 3), (3, 3), (2, 2), (4, 5), (5, 6), (3, 8))])


@pytest.mark.parametrize("half", ["plus", "minus", "both"])
@pytest.mark.parametrize("f,N", BRANCH_SHAPES)
def test_spin_restriction_matches_enumeration_on_branching_shapes(f, N, half):
    assert _spin_restriction(f, N, half) == _by_enumeration(f, N, half)


@pytest.mark.parametrize("seed", range(12))
def test_spin_restriction_matches_enumeration_on_random_maps(seed):
    rng = random.Random(300 + seed)
    N = rng.randint(1, 16)
    n, target = N // 2, rng.randint(1, 4)
    rows = [[Fraction(rng.randint(-4, 4), 2) for _ in range(n)] for _ in range(target)]
    for r in rows:
        if n and sum(r) % 1:   # make every image half-integral
            r[0] += Fraction(1, 2)
    f = LatticeMap.from_rows(rows, source_rank=n)
    for half in ("plus", "minus", "both"):
        assert _spin_restriction(f, N, half) == _by_enumeration(f, N, half)


def test_spin_restriction_rejects_non_half_integral_images():
    f = LatticeMap.from_rows([[Fraction(1, 2), 1, 0], [0, 1, 1]])
    for half in ("plus", "both"):
        for restrict in (_spin_restriction, _by_enumeration):
            with pytest.raises(InputError, match="not half-integral"):
                restrict(f, 6, half)


def test_spin_restriction_to_rank_zero():
    f = LatticeMap(5, 0, IntMatrix.zero(0, 5))
    for N, half in ((11, "both"), (10, "plus"), (10, "minus"), (10, "both")):
        ms = _spin_restriction(f, N, half)
        assert ms == _by_enumeration(f, N, half)
        assert ms.rank == 0 and ms.doubled == (((), ms.dimension),)


def test_spin_restriction_source_rank_must_match():
    with pytest.raises(InputError, match="rank does not match"):
        _spin_restriction(identity_map(3), 8)


@pytest.mark.parametrize("g,halves", [(1, ["both"]), (2, ["both"]),
                                      (3, ["plus", "minus", "both"]), (4, ["both"])])
def test_kuga_satake_pullback_matches_enumeration(g, halves):
    f, N = kuga_satake_embedding(g), comb(2 * g, 2) - 1
    for half in halves:
        assert kuga_satake_spin_pullback(g, half) == _by_enumeration(f, N, half)


def test_kuga_satake_g5_pullback():
    # spin of so44 pulled back to Sp10: 2^22 weights, 13 213 distinct,
    # four copies of the 2^20-dimensional irreducible
    V = irrep_weight_multiset(sp_datum(5), (4, 3, 2, 1, 0))
    pull = kuga_satake_spin_pullback(5)
    assert len(pull.doubled) == 13213
    assert pull.doubled == V.scalar_multiple(4).doubled


def test_spin_restriction_bound_before_any_work():
    # 2^16 independent images: known from the columns alone
    f = so_block_embedding([2] * (MAX_SPIN_RANK + 1))
    with pytest.raises(BoundError, match="at least 2\\^16"):
        _spin_restriction(f, 2 * (MAX_SPIN_RANK + 1), "plus")


def test_spin_restriction_bound_on_partial_images():
    # one row, so only one column is seen to be independent, but the subset
    # sums of distinct powers of two are all distinct
    n = MAX_SPIN_RANK + 1
    f = LatticeMap(n, 1, IntMatrix(1, n, (tuple(2 ** (k + 1) for k in range(n)),)))
    with pytest.raises(BoundError, match="partial weights"):
        _spin_restriction(f, 2 * n + 1)
    small = LatticeMap(n - 1, 1, IntMatrix(1, n - 1, (f.numer.row(0)[:-1],)))
    assert len(_spin_restriction(small, 2 * n - 1).doubled) == 2 ** (n - 1)


def test_kuga_satake_bound_before_the_embedding(monkeypatch):
    # g = 4096 would build a 4096 x 16 775 167 embedding just to refuse it
    def unbuilt(g):
        raise AssertionError("the embedding was built")

    monkeypatch.setattr(weights, "kuga_satake_embedding", unbuilt)
    with pytest.raises(BoundError, match="at least 2\\^4095 "):
        kuga_satake_spin_pullback(4096)


def test_kuga_satake_independent_columns_in_closed_form():
    # the greedy count of _spin_restriction, on the built embedding
    for g in range(2, 41):
        touched, k = set(), 0
        for c in zip(*kuga_satake_embedding(g).numer.entries):
            support = {i for i, x in enumerate(c) if x}
            if not support <= touched:
                touched |= support
                k += 1
        assert k == g - 1
    N = comb(2 * 17, 2) - 1
    with pytest.raises(BoundError) as built:
        _spin_restriction(kuga_satake_embedding(17), N)
    with pytest.raises(BoundError) as closed:
        kuga_satake_spin_pullback(17)
    assert str(closed.value) == str(built.value)


def test_kuga_satake_reads_g_and_half_before_the_bound():
    # at g = 17 the bound refuses, but a bad g or half is an input error first
    with pytest.raises(InputError, match="half must be"):
        kuga_satake_spin_pullback(17, "bogus")
    with pytest.raises(InputError, match="expected an integer"):
        kuga_satake_spin_pullback(20.0)
    with pytest.raises(InputError, match="g must be >= 1"):
        kuga_satake_spin_pullback(-1, "bogus")


def test_datum_built_two_ways_shares_the_caches():
    # the per-datum caches key on the datum, so a copy built by hand is the
    # same key as the standard datum and gets the same cached objects
    sp = sp_datum(3)
    copy = BasedRootDatum.make(sp.simple_roots, sp.simple_coroots)
    assert copy is not sp
    assert copy == sp and hash(copy) == hash(sp)
    assert positive_roots(copy) is positive_roots(sp)
    assert irrep_weight_multiset(copy, (2, 1, 0)) is irrep_weight_multiset(sp, (2, 1, 0))
