import random
from itertools import permutations, product
from math import gcd

import pytest

from liftcalc import heisenberg
from liftcalc.heisenberg import (
    MAX_MODULUS,
    CyclotomicRing,
    Monomial,
    MonomialRep,
    cyclotomic_polynomial,
    determinant_closed_form,
    elementwise_projective_conjugate,
    globally_twist_equivalent,
    heisenberg_group,
    rep_determinant,
    rep_determinant_matches_closed_form,
    rep_rho,
)
from liftcalc.intmat import BoundError, InputError


def units(n):
    return [a for a in range(1, n) if gcd(a, n) == 1]


def conj_by_powers(ring, x):
    """sum_i x_i zeta^{-i}, built from zeta_power alone."""
    out = ring.zero()
    for i, c in enumerate(x):
        out = ring.add(out, ring.scale(c, ring.zeta_power(-i)))
    return out


def twist_equivalent_by_full_scan(r1, r2):
    """<chi_{r1}, chi * chi_{r2}> = |H_n| for some chi, summed over every element."""
    n = r1.n
    ring = CyclotomicRing(n)
    G = heisenberg_group(n)
    els = G.elements()
    chars1 = {g: r1.character(g, ring) for g in els}
    chars2 = {g: r2.character(g, ring) for g in els}
    order_vec = ring.scale(G.order, ring.one())
    for u in range(n):
        for v in range(n):
            total = ring.zero()
            for g in els:
                a, b, _ = g
                chi = ring.zeta_power(u * a + v * b)
                term = ring.mul(chars1[g], conj_by_powers(ring, ring.mul(chi, chars2[g])))
                total = ring.add(total, term)
            if total == order_vec:
                return True
    return False


def elementwise_by_full_scan(r1, r2):
    """The least matching scalar shift at each of the n^3 elements, scanned one by one."""
    witnesses = {}
    for g in heisenberg_group(r1.n).elements():
        e1 = r1.rho(g).eigenvalue_multiset()
        m2 = r2.rho(g)
        found = None
        for k in range(r1.n):
            if m2.scale(k).eigenvalue_multiset() == e1:
                found = k
                break
        if found is None:
            return False, witnesses
        witnesses[g] = found
    return True, witnesses


def witnesses_from_fibres(r1, r2, fibres):
    """The least scalar power at each (a, b, c): (first + (alpha_1 - alpha_2) c) mod step."""
    drift = r1.alpha - r2.alpha
    return {(a, b, c): (first + drift * c) % step
            for (a, b), (first, step) in fibres.items() for c in range(r1.n)}


def character_norm_is_one(r):
    """Irreducibility via the exact character norm."""
    n = r.n
    ring = CyclotomicRing(n)
    G = heisenberg_group(n)
    total = ring.zero()
    for g in G.elements():
        ch = r.character(g, ring)
        total = ring.add(total, ring.mul(ch, ring.conj(ch)))
    return total == ring.scale(G.order, ring.one())


def projective_centralizer_monomial(r):
    """Monomial matrices centralizing the projectivized image, by brute force.

    Candidates commute with the images of A and B up to scalars, which
    suffices for the whole image (the scalar defect is multiplicative on
    generators).  Returns the matrices modulo global scalars.  It tries
    all n! * n^n monomial matrices, so it is for small n only.
    """
    n = r.n
    rho_a, rho_b = r.rho_A(), r.rho_B()
    reps = {}
    for perm in permutations(range(n)):
        for exps in product(range(n), repeat=n):
            m = Monomial(n, perm, exps)
            ok = True
            for gen in (rho_a, rho_b):
                left = m.mul(gen)
                right = gen.mul(m)
                # left == zeta^k right for some k
                if left.perm != right.perm:
                    ok = False
                    break
                ks = {(l - rr) % n for l, rr in zip(left.exps, right.exps)}
                if len(ks) != 1:
                    ok = False
                    break
            if ok:
                # normalize modulo scalars: force the first exponent to 0
                key = (perm, tuple((e - exps[0]) % n for e in exps))
                reps[key] = m
    return list(reps.values())


def commutator(G, g, h):
    return G.mul(G.mul(g, h), G.mul(G.inv(g), G.inv(h)))


def center_by_scan(G):
    """Elements commuting with every element, by comparing all n^6 products."""
    els = G.elements()
    return [z for z in els if all(G.mul(z, g) == G.mul(g, z) for g in els)]


def conjugacy_classes_by_scan(G):
    """Conjugacy classes as sorted tuples, each orbit found by conjugating with every element."""
    els = G.elements()
    seen = set()
    classes = []
    for g in els:
        if g in seen:
            continue
        orbit = {G.mul(G.mul(h, g), G.inv(h)) for h in els}
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


class AnyAlphaRep(MonomialRep):
    """The same monomial formula with alpha not required to be a unit."""

    def __post_init__(self):
        pass


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_ring_arithmetic():
    ring = CyclotomicRing(5)
    z = ring.zeta_power(1)
    acc = ring.one()
    for _ in range(5):
        acc = ring.mul(acc, z)
    assert acc == ring.zeta_power(5) == ring.one()
    # 1 + z + z^2 + z^3 + z^4 = 0
    total = ring.zero()
    for k in range(5):
        total = ring.add(total, ring.zeta_power(k))
    assert ring.is_zero(total)
    assert ring.conj(ring.zeta_power(2)) == ring.zeta_power(3)


@pytest.mark.parametrize("n", [5, 8, 12])
def test_conj_matches_powers(n):
    ring = CyclotomicRing(n)
    rng = random.Random(n)
    for _ in range(50):
        x = tuple(rng.randint(-9, 9) for _ in range(ring.degree))
        assert ring.conj(x) == conj_by_powers(ring, x)


def test_group_order_and_center():
    G = heisenberg_group(3)
    assert G.order == 27
    center = center_by_scan(G)
    assert len(center) == 3
    assert all(z[0] == 0 and z[1] == 0 for z in center)


def test_group_n2_is_dihedral():
    G = heisenberg_group(2)
    assert G.order == 8
    sizes = sorted(len(c) for c in conjugacy_classes_by_scan(G))
    assert sizes == [1, 1, 2, 2, 2]


def test_group_law_commutator():
    for n in (2, 3, 4, 5):
        G = heisenberg_group(n)
        A, B, Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
        assert commutator(G, A, B) == Z
        # Z is central
        for g in ((1, 2, 0), (2, 1, 1)):
            g = tuple(x % n for x in g)
            assert G.mul(Z, g) == G.mul(g, Z)


def test_rep_is_homomorphism():
    for n in (2, 3, 4, 5):
        for alpha in units(n):
            r = rep_rho(n, alpha)
            G = heisenberg_group(n)
            els = G.elements()
            for g in els[:: max(1, len(els) // 20)]:
                for h in els[:: max(1, len(els) // 20)]:
                    assert r.rho(g).mul(r.rho(h)) == r.rho(G.mul(g, h))


def test_rep_defining_relation():
    # rho(A B A^-1) = zeta^alpha rho(B) as an exact matrix identity
    for n in (3, 4, 5, 7):
        for alpha in units(n):
            r = rep_rho(n, alpha)
            G = heisenberg_group(n)
            conj = G.mul(G.mul((1, 0, 0), (0, 1, 0)), G.inv((1, 0, 0)))
            assert r.rho(conj) == r.rho((0, 1, 0)).scale(alpha)


def test_rep_identity_matrix():
    r = rep_rho(5, 2)
    m = r.rho((0, 0, 0))
    assert m.perm == tuple(range(5)) and all(e == 0 for e in m.exps)
    z = r.rho((0, 0, 1))
    assert z.perm == tuple(range(5)) and all(e == 2 for e in z.exps)


def test_rep_rejects_non_unit():
    with pytest.raises(InputError):
        rep_rho(4, 2)
    with pytest.raises(InputError):
        rep_rho(0, 1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_local_global_gap(n):
    us = units(n)
    for a in us:
        for b in us:
            r1, r2 = rep_rho(n, a), rep_rho(n, b)
            same, _ = elementwise_projective_conjugate(r1, r2)
            assert same
            assert globally_twist_equivalent(r1, r2) == (a == b)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_twist_equivalence_matches_full_scan(n):
    pairs = [(a, b) for a in units(n) for b in units(n)]
    if n > 6:
        # the full scan costs about 0.4 s a pair at n = 7: one equal and one distinct pair
        pairs = [(3, 3), (3, 5)]
    for a, b in pairs:
        r1, r2 = rep_rho(n, a), rep_rho(n, b)
        assert globally_twist_equivalent(r1, r2) == twist_equivalent_by_full_scan(r1, r2)


@pytest.mark.parametrize("n", [4, 6])
def test_twist_equivalence_non_unit_alphas_match_full_scan(n):
    # with a non-unit alpha the characters need not vanish off the centre;
    # at n = 6 the alphas are 0, a unit, and one each of gcd 2 and 3
    alphas = range(n) if n < 6 else (0, 1, 2, 3)
    verdicts = set()
    for a in alphas:
        for b in alphas:
            r1, r2 = AnyAlphaRep(n, a), AnyAlphaRep(n, b)
            got = globally_twist_equivalent(r1, r2)
            assert got == twist_equivalent_by_full_scan(r1, r2)
            verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", range(2, 13))
def test_elementwise_matches_full_scan(n):
    # past n = 8 the left unit is one of two, which still gives every drift a - b
    for a in units(n) if n <= 8 else units(n)[:2]:
        for b in units(n):
            r1, r2 = rep_rho(n, a), rep_rho(n, b)
            same, fibres = elementwise_projective_conjugate(r1, r2)
            want_same, want_wit = elementwise_by_full_scan(r1, r2)
            assert same == want_same
            wit = witnesses_from_fibres(r1, r2, fibres)
            assert list(wit.items()) == list(want_wit.items())


@pytest.mark.parametrize("n", [4, 6, 8])
def test_elementwise_partial_witnesses_match_full_scan(n):
    # non-unit alphas make some fibre fail, so the fibres before it are compared too
    verdicts = set()
    for a in range(n):
        for b in range(n):
            r1, r2 = AnyAlphaRep(n, a), AnyAlphaRep(n, b)
            same, fibres = elementwise_projective_conjugate(r1, r2)
            want_same, want_wit = elementwise_by_full_scan(r1, r2)
            assert same == want_same
            wit = witnesses_from_fibres(r1, r2, fibres)
            assert list(wit.items()) == list(want_wit.items())
            verdicts.add(same)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", [5, 8])
def test_character_is_trace(n):
    ring = CyclotomicRing(n)
    for alpha in units(n):
        r = rep_rho(n, alpha)
        for g in heisenberg_group(n).elements():
            m = r.rho(g).matrix()
            trace = ring.zero()
            for j in range(n):
                if m[j][j] is not None:
                    trace = ring.add(trace, ring.zeta_power(m[j][j]))
            assert r.character(g, ring) == trace


def test_modulus_bound(monkeypatch):
    def no_scan(*args):
        raise AssertionError("scan started above the modulus bound")

    monkeypatch.setattr(heisenberg, "heisenberg_group", no_scan)
    monkeypatch.setattr(heisenberg, "CyclotomicRing", no_scan)
    n = MAX_MODULUS + 1
    r1, r2 = rep_rho(n, 1), rep_rho(n, units(n)[1])
    with pytest.raises(BoundError):
        elementwise_projective_conjugate(r1, r2)
    with pytest.raises(BoundError):
        globally_twist_equivalent(r1, r2)


def test_deciders_work_per_fibre(monkeypatch):
    # neither decider may fall back to scanning the n^3 group elements or
    # to building eigenvalue multisets, which stay the oracles above
    def no_scan(*args):
        raise AssertionError("fell back to a scan of the group")

    monkeypatch.setattr(heisenberg, "heisenberg_group", no_scan)
    monkeypatch.setattr(Monomial, "eigenvalue_multiset", no_scan)
    for n, a, b in ((7, 3, 5), (12, 5, 5), (31, 2, 2), (31, 1, 30)):
        r1, r2 = rep_rho(n, a), rep_rho(n, b)
        same, fibres = elementwise_projective_conjugate(r1, r2)
        assert same and len(fibres) == n ** 2
        assert globally_twist_equivalent(r1, r2) == (a == b)


def test_elementwise_self():
    r = rep_rho(5, 2)
    same, fibres = elementwise_projective_conjugate(r, r)
    assert same and all(first == 0 for first, _ in fibres.values())


@pytest.mark.parametrize("n", range(2, 13))
def test_determinant_table(n):
    for alpha in units(n):
        assert rep_determinant_matches_closed_form(n, alpha)


def test_determinant_examples():
    # n = 4: det B is 1 for alpha even... only units are odd, so -1; the
    # even-alpha clause is exercised through the closed form directly
    assert determinant_closed_form(4, 2)["B"] == (1, 0)
    got = rep_determinant(rep_rho(4, 1))
    assert got["B"][0] * pow(-1, 0) == -1 or got["B"] == (1, 2)
    # det Z = 1 always
    for n in (3, 4, 5):
        for alpha in units(n):
            d = rep_determinant(rep_rho(n, alpha))["Z"]
            ring = CyclotomicRing(n)
            assert ring.scale(d[0], ring.zeta_power(d[1])) == ring.one()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_irreducible(n):
    for alpha in units(n):
        assert character_norm_is_one(rep_rho(n, alpha))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projective_centralizer(n):
    # The projectivized image is abelian (the center maps to scalars), so it
    # centralizes itself: the monomial projective centralizer is the full
    # n^2-element image, containing the cyclic order-n subgroup of A-powers.
    r = rep_rho(n, 1)
    cent = projective_centralizer_monomial(r)
    assert len(cent) == n * n

    def norm(m):
        return (m.perm, tuple((e - m.exps[0]) % n for e in m.exps))

    got = {norm(m) for m in cent}
    a = r.rho_A()
    cur = a
    a_powers = set()
    for _ in range(n):
        a_powers.add(norm(cur))
        cur = cur.mul(a)
    assert len(a_powers) == n and a_powers <= got
    # and the centralizer is exactly the image of the group
    G = heisenberg_group(n)
    image = {norm(r.rho(g)) for g in G.elements()}
    assert image == got


@pytest.mark.slow
def test_projective_centralizer_n5():
    cent = projective_centralizer_monomial(rep_rho(5, 1))
    assert len(cent) == 25


@pytest.mark.parametrize("n", [6, 7, 8])
def test_local_global_gap_larger_moduli(n):
    us = units(n)
    for a in us:
        for b in us:
            r1, r2 = rep_rho(n, a), rep_rho(n, b)
            same, _ = elementwise_projective_conjugate(r1, r2)
            assert same
            assert globally_twist_equivalent(r1, r2) == (a == b)
