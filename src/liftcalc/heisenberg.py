"""The mod-n Heisenberg group and its monomial representations, exactly.

Matrix entries are powers of zeta_n, held as exponents mod n; nothing is
floated.  Both deciders are theorems about units alpha mod n.  Any two
representations rho_alpha are projectively conjugate at every element,
and the certificate is a function that gives the matching scalar powers
of one central fibre in closed form, from the cycle structure of the
monomial matrices, so no decider walks the fibres.  One
is a twist of the other only when the alphas agree mod n, read off the
characters in closed form: n zeta^{alpha c} at the elements (0, b, c)
with n | alpha b and 0 everywhere else.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .intmat import BoundError, InputError

# Largest modulus the two deciders accept.  Both take constant time: the
# twist test is two congruences, and the element-wise certificate computes
# a fibre's pair from two gcds when asked for it.  What grows with n is
# rep_determinant's O(n) walk over the basis, which heisenberg-demo runs for
# both representations.  As fresh processes on a 2-vCPU Xeon with Python
# 3.11, ``heisenberg-demo --n 100000 --alpha 1 --beta 3`` takes 0.25-0.30 s
# (median 0.25 s) and peaks at 25 MiB, against 0.08-0.09 s and 17 MiB at
# n = 181; n = 1000003 takes 1.8-2.2 s and 100 MiB.
MAX_MODULUS = 100000


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

    def mul(self, g, h):
        n = self.n
        return ((g[0] + h[0]) % n, (g[1] + h[1]) % n,
                (g[2] + h[2] - h[0] * g[1]) % n)

    def inv(self, g):
        n = self.n
        a, b, c = g
        return ((-a) % n, (-b) % n, (-c - a * b) % n)


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

    def scale(self, k: int) -> "Monomial":
        return Monomial(self.n, self.perm, tuple((e + k) % self.n for e in self.exps))

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


@dataclass(frozen=True)
class MonomialRep:
    """The monomial representation with B-eigenvalues zeta^{(i-1) alpha}."""

    n: int
    alpha: int

    def __post_init__(self):
        if gcd(self.alpha, self.n) != 1:
            raise InputError("alpha must be a unit modulo n")

    def rho(self, g) -> Monomial:
        a, b, c = g
        n = self.n
        # A^a B^b Z^c: e_j -> zeta^{alpha (b j + c)} e_{j - a}
        perm = tuple((j - a) % n for j in range(n))
        exps = tuple((self.alpha * (b * j + c)) % n for j in range(n))
        return Monomial(n, perm, exps)


def rep_rho(n: int, alpha: int) -> MonomialRep:
    if n < 2:
        raise InputError("modulus must be at least 2")
    return MonomialRep(n, alpha % n)


def rep_determinant(r: MonomialRep) -> dict:
    """Exact determinants of the images of A, B, Z as (sign, zeta exponent)."""
    gens = {"A": (1, 0, 0), "B": (0, 1, 0), "Z": (0, 0, 1)}
    return {name: r.rho(g).det() for name, g in gens.items()}


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
    """Compare sign * zeta_n^e as the power 2e + n [sign < 0] of zeta_2n."""
    def power(sign, e):
        return (2 * e + (n if sign < 0 else 0)) % (2 * n)
    return power(*d1) == power(*d2)


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

    Yes, for any units alpha_1 and alpha_2.  Returns (True, fibre), where
    fibre(a, b) = (first, step) = (0, gcd(b, gcd(a, n))) for the central
    fibre (a, b): the least scalar power k with matching eigenvalue
    multisets at (a, b, c) is (first + (alpha_1 - alpha_2) c) mod step.

    Proof.  rho_i(a, b, 0) shifts the basis by a, so it has g = gcd(a, n)
    cycles, the classes j0 mod g, each of length L = n / g and exponent
    sum s_i(j0) = alpha_i b (L j0 + C) mod n with C = g L (L - 1) / 2.  A
    cycle's eigenvalues are the whole class of s_i(j0) in Z/nL, and
    scaling by zeta^t moves s_i by t L, so the multisets match exactly
    when the residues s_1 and s_2 + t L do.  Each residue multiset is
    uniform on a coset of the subgroup h Z/n, h = gcd(alpha_i b L, n),
    and as alpha_i is a unit, h = gcd(b L, n) = L step with
    step = gcd(b, g) on both sides.  So the shifts that match at c = 0 are
    the t with t L = D mod L step, D = (alpha_1 - alpha_2) b C.  Here
    D / L = (alpha_1 - alpha_2) b g (L - 1) / 2 is a multiple of b, hence
    of step: (L - 1) / 2 is whole for odd L, and for even L the modulus n
    is even, both units are odd and alpha_1 - alpha_2 is even.  So t = 0
    matches, and first = 0.  rho_i(a, b, c) is rho_i(a, b, 0) scaled by
    zeta^(alpha_i c), which moves the coset by (alpha_1 - alpha_2) c.  The
    tests solve the congruence per fibre and build the eigenvalue
    multisets by walking the cycles.
    """
    _require_comparable(r1, r2)
    n = r1.n

    def fibre(a, b):
        return 0, gcd(b, gcd(a, n))
    return True, fibre


def globally_twist_equivalent(r1: MonomialRep, r2: MonomialRep) -> bool:
    """Is r1 isomorphic to r2 twisted by a character of the abelianization?

    r1 is the twist of r2 by chi(a, b, c) = zeta^{ua + vb} exactly when the
    inner product sum_g chi_1(g) conj(chi(g) chi_2(g)) equals |H_n| = n^3.
    The characters vanish off a = 0, where rho(g) permutes the basis without
    fixed points, and chi_i(0, b, c) = sum_j zeta^{alpha_i (b j + c)}
    = n zeta^{alpha_i c} [n | alpha_i b] by the orthogonality of roots of
    unity.  Summing over c gives n [n | alpha_1 - alpha_2].  When
    alpha_1 = alpha_2 mod n, [n | alpha_i b] = [n/g | b] with
    g = gcd(alpha_1, n), and summing zeta^{-vb} over those b gives g [g | v].
    So the inner product is n^3 g [g | v] when alpha_1 = alpha_2 mod n and 0
    otherwise, whatever u is: it reaches n^3 exactly when alpha_1 = alpha_2
    mod n and g = 1.
    """
    _require_comparable(r1, r2)
    n = r1.n
    return (r1.alpha - r2.alpha) % n == 0 and gcd(r1.alpha, n) == 1
