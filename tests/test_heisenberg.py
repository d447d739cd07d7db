import hashlib
import random
from functools import cache
from itertools import permutations, product
from math import gcd, lcm

import pytest

from liftcalc import heisenberg
from liftcalc.cli import main
from liftcalc.heisenberg import (
    Monomial,
    MonomialRep,
    elementwise_projective_conjugate,
    globally_twist_equivalent,
    heisenberg_group,
    rep_determinant,
    rep_determinant_matches_closed_form,
    rep_rho,
)
from liftcalc.intmat import InputError


def units(n):
    return [a for a in range(1, n) if gcd(a, n) == 1]


# ---------------------------------------------------------------------------
# Z[zeta_n] and characters by traces: the oracle of the closed forms


def _poly_divmod(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        coef = num[i + len(den) - 1]
        if coef % den[-1] != 0:
            raise AssertionError("non-monic cyclotomic division")
        coef //= den[-1]
        out[i] = coef
        for j, d in enumerate(den):
            num[i + j] -= coef * d
    if any(x != 0 for x in num):
        raise AssertionError("cyclotomic division left a remainder")
    return out


@cache
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    poly = [-1] + [0] * (n - 1) + [1]   # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


class CyclotomicRing:
    """Z[zeta_n] with elements as coefficient tuples modulo Phi_n."""

    def __init__(self, n: int):
        self.n = n
        self.phi = cyclotomic_polynomial(n)
        self.degree = len(self.phi) - 1
        # reduction table for x^k, k < 2 * degree + n
        self._pow = []
        for k in range(2 * self.degree + n):
            if k < self.degree:
                vec = [0] * self.degree
                vec[k] = 1
            else:
                prev = list(self._pow[k - 1])
                vec = [0] + prev[:-1]
                top = prev[-1]
                if top:
                    for i in range(self.degree):
                        vec[i] -= top * self.phi[i]
            self._pow.append(tuple(vec))
        # zeta^{-i} for each basis power zeta^i: conj is linear in them
        self._conj = [self._pow[(-i) % n] for i in range(self.degree)]

    def zero(self):
        return (0,) * self.degree

    def one(self):
        return self.zeta_power(0)

    def zeta_power(self, k: int):
        return self._pow[k % self.n]

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def scale(self, c: int, a):
        return tuple(c * x for x in a)

    def mul(self, a, b):
        out = [0] * self.degree
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y == 0:
                    continue
                for t, c in enumerate(self._pow[i + j]):
                    out[t] += x * y * c
        return tuple(out)

    def conj(self, a):
        """The automorphism zeta -> zeta^{-1}."""
        out = [0] * self.degree
        for x, image in zip(a, self._conj):
            if x:
                for t, c in enumerate(image):
                    out[t] += x * c
        return tuple(out)

    def is_zero(self, a) -> bool:
        return all(x == 0 for x in a)


def character(r, g, ring):
    """The trace of rho(g): zeta^e summed over the fixed points of its permutation."""
    m = r.rho(g)
    out = ring.zero()
    for j in range(m.n):
        if m.perm[j] == j:
            out = ring.add(out, ring.zeta_power(m.exps[j]))
    return out


# ---------------------------------------------------------------------------
# group elements and monomial matrices, entry by entry


def elements(G):
    n = G.n
    return [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]


def matrix(m):
    """Entries as {None} union Z/n: exponent of zeta, or None for zero."""
    out = [[None] * m.n for _ in range(m.n)]
    for j in range(m.n):
        out[m.perm[j]][j] = m.exps[j]
    return out


def eigenvalue_multiset(m):
    """Eigenvalues as exponents in a common root-of-unity group.

    Each permutation cycle of length L with entry-exponent sum s
    contributes the L roots of x^L = zeta^s; all eigenvalues are
    expressed in mu_{n * M} for M the lcm of the cycle lengths.
    """
    cycles = []
    seen = [False] * m.n
    for j in range(m.n):
        if seen[j]:
            continue
        length, s = 0, 0
        k = j
        while not seen[k]:
            seen[k] = True
            s += m.exps[k]
            k = m.perm[k]
            length += 1
        cycles.append((length, s % m.n))
    M = lcm(*[c[0] for c in cycles]) if cycles else 1
    modulus = m.n * M
    eig = {}
    for L, s in cycles:
        for j in range(L):
            e = ((s + m.n * j) * (M // L)) % modulus
            eig[e] = eig.get(e, 0) + 1
    return modulus, tuple(sorted(eig.items()))


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
    els = elements(heisenberg_group(n))
    chars1 = {g: character(r1, g, ring) for g in els}
    chars2 = {g: character(r2, g, ring) for g in els}
    order_vec = ring.scale(len(els), ring.one())
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
    for g in elements(heisenberg_group(r1.n)):
        e1 = eigenvalue_multiset(r1.rho(g))
        m2 = r2.rho(g)
        found = None
        for k in range(r1.n):
            if eigenvalue_multiset(m2.scale(k)) == e1:
                found = k
                break
        if found is None:
            return False, witnesses
        witnesses[g] = found
    return True, witnesses


def elementwise_by_congruences(r1, r2):
    """Per central fibre: solve t L = (alpha_1 - alpha_2) b C mod h, for any alphas.

    Compares the coset moduli h = gcd(alpha_i b L, n) of both sides and
    returns (False, the fibres before the failing one) when they differ or
    the congruence has no solution.
    """
    n = r1.n
    drift = r1.alpha - r2.alpha
    fibres = {}
    for a in range(n):
        g = gcd(a, n)
        L = n // g
        C = g * L * (L - 1) // 2
        for b in range(n):
            h = gcd(r1.alpha * b * L, n)
            if gcd(r2.alpha * b * L, n) != h:
                return False, fibres
            d = gcd(L, h)
            D = drift * b * C
            if D % d:
                return False, fibres
            step = h // d
            fibres[(a, b)] = (D // d * pow(L // d, -1, step) % step, step)
    return True, fibres


def fibre_table(n, fibre):
    """The certificate as a dict over the n^2 central fibres, in (a, b) order."""
    return {(a, b): fibre(a, b) for a in range(n) for b in range(n)}


def witnesses_from_fibres(r1, r2, fibres):
    """The least scalar power at each (a, b, c): (first + (alpha_1 - alpha_2) c) mod step."""
    drift = r1.alpha - r2.alpha
    return {(a, b, c): (first + drift * c) % step
            for (a, b), (first, step) in fibres.items() for c in range(r1.n)}


def character_norm_is_one(r):
    """Irreducibility via the exact character norm."""
    n = r.n
    ring = CyclotomicRing(n)
    els = elements(heisenberg_group(n))
    total = ring.zero()
    for g in els:
        ch = character(r, g, ring)
        total = ring.add(total, ring.mul(ch, ring.conj(ch)))
    return total == ring.scale(len(els), ring.one())


def monomial_mul(m1, m2):
    """The product M1 M2 of two monomial matrices: (M1 M2) e_j = zeta^{E2[j]} M1 e_{P2(j)}."""
    n = m1.n
    perm = tuple(m1.perm[m2.perm[j]] for j in range(n))
    exps = tuple((m2.exps[j] + m1.exps[m2.perm[j]]) % n for j in range(n))
    return Monomial(n, perm, exps)


def projective_centralizer_monomial(r):
    """Monomial matrices centralizing the projectivized image, by brute force.

    Candidates commute with the images of A and B up to scalars, which
    suffices for the whole image (the scalar defect is multiplicative on
    generators).  Returns the matrices modulo global scalars.  It tries
    all n! * n^n monomial matrices, so it is for small n only.
    """
    n = r.n
    rho_a, rho_b = r.rho((1, 0, 0)), r.rho((0, 1, 0))
    reps = {}
    for perm in permutations(range(n)):
        for exps in product(range(n), repeat=n):
            m = Monomial(n, perm, exps)
            ok = True
            for gen in (rho_a, rho_b):
                left = monomial_mul(m, gen)
                right = monomial_mul(gen, m)
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
    els = elements(G)
    return [z for z in els if all(G.mul(z, g) == G.mul(g, z) for g in els)]


def conjugacy_classes_by_scan(G):
    """Conjugacy classes as sorted tuples, each orbit found by conjugating with every element."""
    els = elements(G)
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
    assert len(elements(G)) == 27
    center = center_by_scan(G)
    assert len(center) == 3
    assert all(z[0] == 0 and z[1] == 0 for z in center)


def test_group_n2_is_dihedral():
    G = heisenberg_group(2)
    assert len(elements(G)) == 8
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
            els = elements(G)
            for g in els[:: max(1, len(els) // 20)]:
                for h in els[:: max(1, len(els) // 20)]:
                    assert monomial_mul(r.rho(g), r.rho(h)) == r.rho(G.mul(g, h))


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
            same, fibre = elementwise_projective_conjugate(r1, r2)
            want_same, want_wit = elementwise_by_full_scan(r1, r2)
            assert same == want_same
            wit = witnesses_from_fibres(r1, r2, fibre_table(n, fibre))
            assert list(wit.items()) == list(want_wit.items())


@pytest.mark.parametrize("n", [4, 6, 8])
def test_elementwise_partial_witnesses_match_full_scan(n):
    # non-unit alphas make some fibre fail, so the fibres before it are compared too
    verdicts = set()
    for a in range(n):
        for b in range(n):
            r1, r2 = AnyAlphaRep(n, a), AnyAlphaRep(n, b)
            same, fibres = elementwise_by_congruences(r1, r2)
            want_same, want_wit = elementwise_by_full_scan(r1, r2)
            assert same == want_same
            wit = witnesses_from_fibres(r1, r2, fibres)
            assert list(wit.items()) == list(want_wit.items())
            verdicts.add(same)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", range(2, 25))
def test_elementwise_matches_congruences(n):
    # the closed form against the congruence solved per fibre, on every unit pair
    for a in units(n):
        for b in units(n):
            r1, r2 = rep_rho(n, a), rep_rho(n, b)
            same, fibre = elementwise_projective_conjugate(r1, r2)
            want_same, want_fibres = elementwise_by_congruences(r1, r2)
            assert same is want_same is True
            assert list(fibre_table(n, fibre).items()) == list(want_fibres.items())


@pytest.mark.parametrize("n", [5, 8])
def test_character_is_trace(n):
    ring = CyclotomicRing(n)
    for alpha in units(n):
        r = rep_rho(n, alpha)
        for g in elements(heisenberg_group(n)):
            m = matrix(r.rho(g))
            trace = ring.zero()
            for j in range(n):
                if m[j][j] is not None:
                    trace = ring.add(trace, ring.zeta_power(m[j][j]))
            assert character(r, g, ring) == trace
            # the closed form globally_twist_equivalent rests on
            a, b, c = g
            if a == 0 and alpha * b % n == 0:
                assert trace == ring.scale(n, ring.zeta_power(alpha * c))
            else:
                assert ring.is_zero(trace)


def test_deciders_work_per_fibre(monkeypatch):
    # neither decider may fall back to scanning the n^3 group elements or
    # to building eigenvalue multisets, which stay the oracles above, and
    # the element-wise one computes no fibre until it is asked for one
    def no_scan(*args):
        raise AssertionError("fell back to a scan of the group")

    cases = ((7, 3, 5), (12, 5, 5), (31, 2, 2), (31, 1, 30), (10 ** 4299 + 1, 1, 3))
    reps = [(rep_rho(n, a), rep_rho(n, b), a == b) for n, a, b in cases]
    calls = []

    def counting_gcd(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(heisenberg, "heisenberg_group", no_scan)
    monkeypatch.setattr(heisenberg, "gcd", counting_gcd)
    for r1, r2, equal in reps:
        same, fibre = elementwise_projective_conjugate(r1, r2)
        assert same and calls == []
        for a, b in ((0, 0), (1, r1.n - 1), (r1.n - 1, 6)):
            fibre(a, b)
            assert len(calls) == 2
            calls.clear()
        assert globally_twist_equivalent(r1, r2) == equal
        calls.clear()


def test_elementwise_self():
    r = rep_rho(5, 2)
    same, fibre = elementwise_projective_conjugate(r, r)
    assert same and all(first == 0 for first, _ in fibre_table(r.n, fibre).values())


@pytest.mark.parametrize("n", range(2, 13))
def test_determinant_table(n):
    for alpha in units(n):
        assert rep_determinant_matches_closed_form(n, alpha)


def determinant_closed_form(n: int, alpha: int) -> dict:
    """The paper's case table: A -> (-1)^(n-1); B -> 1 if n odd or alpha, n
    both even, else -1; Z -> 1."""
    det_a = (1 if (n - 1) % 2 == 0 else -1, 0)
    if n % 2 == 1 or (alpha % 2 == 0 and n % 2 == 0):
        det_b = (1, 0)
    else:
        det_b = (-1, 0)
    return {"A": det_a, "B": det_b, "Z": (1, 0)}


def _dets_equal(n: int, d1, d2) -> bool:
    """Compare sign * zeta_n^e as the power 2e + n [sign < 0] of zeta_2n."""
    def power(sign, e):
        return (2 * e + (n if sign < 0 else 0)) % (2 * n)
    return power(*d1) == power(*d2)


@pytest.mark.parametrize("n", range(2, 61))
def test_determinant_case_table(n):
    for alpha in range(n):
        r = rep_rho(n, alpha) if gcd(alpha, n) == 1 else AnyAlphaRep(n, alpha)
        got = rep_determinant(r)
        want = determinant_closed_form(n, alpha)
        assert all(_dets_equal(n, got[k], want[k]) for k in ("A", "B", "Z")), (n, alpha)


def test_determinant_builds_no_matrix(monkeypatch):
    def no_matrix(*args):
        raise AssertionError("built a monomial matrix")

    monkeypatch.setattr(MonomialRep, "rho", no_matrix)
    n = 10 ** 30 + 1
    got = rep_determinant(rep_rho(n, 7))
    assert got == {"A": (1, 0), "B": (1, 0), "Z": (1, 0)}


def test_determinant_examples():
    # n = 4: det B is 1 for alpha even, and -1 = zeta_4^2 for the units,
    # which are odd; the even-alpha clause needs a non-unit
    assert determinant_closed_form(4, 2)["B"] == (1, 0)
    assert rep_determinant(AnyAlphaRep(4, 2))["B"] == (1, 0)
    assert determinant_closed_form(4, 1)["B"] == (-1, 0)
    assert rep_determinant(rep_rho(4, 1))["B"] == (1, 2)
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
    a = r.rho((1, 0, 0))
    cur = a
    a_powers = set()
    for _ in range(n):
        a_powers.add(norm(cur))
        cur = monomial_mul(cur, a)
    assert len(a_powers) == n and a_powers <= got
    # and the centralizer is exactly the image of the group
    G = heisenberg_group(n)
    image = {norm(r.rho(g)) for g in elements(G)}
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


# Pinned sha256 digests of the Heisenberg reports and verdicts.  Each digest
# hashes ``repr`` of every line, so a changed verdict, witness type or report
# byte changes it.
DEMO_DIGEST = "d8d424372da85ac4a401677d0759ae8bbf9a3357a8b8e0e617a091ecfe5aebc6"
DECIDER_DIGEST = "138d0172d5595d5c0077cb4b21391fa817e37c8f830b999f19bd9f17ac287f66"


def _digest(lines):
    return hashlib.sha256("\n".join(map(repr, lines)).encode()).hexdigest()


def test_demo_digest(capsys):
    # every unit pair for n = 2..12, as json and as a table
    lines = []
    for n in range(2, 13):
        for a in units(n):
            for b in units(n):
                for fmt in ("json", "table"):
                    code = main(["heisenberg-demo", "--n", str(n), "--alpha", str(a),
                                 "--beta", str(b), "--format", fmt])
                    cap = capsys.readouterr()
                    lines.append((code, cap.out, cap.err))
    assert _digest(lines) == DEMO_DIGEST


def test_decider_digest(monkeypatch):
    # every alpha pair for n = 2..20, units or not, and every pair of
    # determinants sign * zeta^e, e < n
    lines = []
    for n in range(2, 21):
        reps = [rep_rho(n, a) if gcd(a, n) == 1 else AnyAlphaRep(n, a) for a in range(n)]
        for r1 in reps:
            for r2 in reps:
                lines.append((n, r1.alpha, r2.alpha, globally_twist_equivalent(r1, r2)))
        for r in reps:
            with monkeypatch.context() as m:
                m.setattr(heisenberg, "rep_rho", lambda n, alpha, r=r: r)
                lines.append((n, r.alpha, rep_determinant_matches_closed_form(n, r.alpha)))
        dets = [(sign, e) for sign in (1, -1) for e in range(n)]
        lines.append((n, [_dets_equal(n, d1, d2) for d1 in dets for d2 in dets]))
    assert _digest(lines) == DECIDER_DIGEST
