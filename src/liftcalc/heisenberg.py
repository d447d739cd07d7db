"""The mod-n Heisenberg group and its monomial representations, exactly.

Matrix entries are powers of zeta_n, held as exponents mod n; nothing is
floated.  Every answer is a theorem about alpha mod n, so no decider and
no determinant grows with n.  Any two representations rho_alpha with unit
alphas are projectively conjugate at every element, and the certificate
is a function that gives the matching scalar powers of one central fibre
in closed form, from the cycle structure of the monomial matrices.  One
is a twist of the other only when the alphas agree mod n, read off the
characters in closed form: n zeta^{alpha c} at the elements (0, b, c)
with n | alpha b and 0 everywhere else.  The determinants of the
generators are closed forms too; building their monomial matrices and
walking the cycles is kept only as their check.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .intmat import InputError, int_tuple


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
        (n,) = int_tuple((self.n,))
        if n < 2:
            raise InputError("modulus must be at least 2")
        object.__setattr__(self, "n", n)

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
    """The monomial representation with B-eigenvalues zeta^{(i-1) alpha}.

    n and alpha are read as integers, n must be at least 2 and alpha a
    unit modulo n, and alpha is held reduced mod n.
    """

    n: int
    alpha: int

    def __post_init__(self):
        n, alpha = int_tuple((self.n, self.alpha))
        if n < 2:
            raise InputError("modulus must be at least 2")
        if gcd(alpha, n) != 1:
            raise InputError("alpha must be a unit modulo n")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "alpha", alpha % n)

    def rho(self, g) -> Monomial:
        a, b, c = g
        n = self.n
        # A^a B^b Z^c: e_j -> zeta^{alpha (b j + c)} e_{j - a}
        perm = tuple((j - a) % n for j in range(n))
        exps = tuple((self.alpha * (b * j + c)) % n for j in range(n))
        return Monomial(n, perm, exps)


def rep_rho(n: int, alpha: int) -> MonomialRep:
    return MonomialRep(n, alpha)


def rep_determinant(r: MonomialRep) -> dict:
    """Exact determinants of the images of A, B, Z as (sign, zeta exponent).

    rho(A) sends e_j to e_{j-1}, one n-cycle with zero exponents, so its
    determinant is the cycle's sign (-1)^(n-1).  rho(B) is diagonal with
    exponents alpha j, summing to alpha n(n-1)/2.  rho(Z) is the scalar
    zeta^alpha, whose n-th power is 1.
    """
    n = r.n
    return {"A": (1 if n % 2 else -1, 0),
            "B": (1, r.alpha * (n * (n - 1) // 2) % n),
            "Z": (1, 0)}


def rep_determinant_matches_closed_form(n: int, alpha: int) -> bool:
    """Do the closed forms equal the determinants of the monomial matrices?"""
    r = rep_rho(n, alpha)
    gens = {"A": (1, 0, 0), "B": (0, 1, 0), "Z": (0, 0, 1)}
    return {name: r.rho(g).det() for name, g in gens.items()} == rep_determinant(r)


def _require_comparable(r1: MonomialRep, r2: MonomialRep):
    if r1.n != r2.n:
        raise InputError("representations live over different moduli")


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
