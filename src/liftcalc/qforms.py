"""Rational quadratic forms: diagonalization, Hasse symbols, Clifford splitness.

Gram entries are ``int`` or ``Fraction``, and any other entry raises
InputError: an integral form stays on plain integers from its Gram matrix
to its square classes, since the local formulas read only signs,
valuations and square classes (Serre, *A Course in Arithmetic*, ch.
III-IV), and integers carry all three.  Only the entries ``diagonalize``
returns are Fractions.

The invariants are read off the leading minors of a diagonalization, and
only the determinant and the least common denominator of the Gram matrix
are factored, so a report depends on the form, not on its basis.  Hilbert
symbols are computed by the explicit local formulas (Legendre symbols at
odd primes, the epsilon/omega formulas at 2, signs at the real place),
and the product formula is asserted on every computed form.  The even
Clifford algebra of an odd-rank form is declared split from the
Witt-invariant table; an independent structure-constants route (explicit
Clifford multiplication) is provided for cross-checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt, lcm, prod
from operator import mul

from .intmat import BoundError, InputError, int_tuple, rational_tuple

# Trial division gives up with BoundError once the divisor passes this
# cap, so every integer below TRIAL_DIVISION_CAP**2 still factors.
TRIAL_DIVISION_CAP = 10 ** 6

# Miller-Rabin on the first 13 prime bases decides primality exactly below
# _MR_EXACT_BELOW (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


@dataclass(frozen=True)
class QForm:
    gram: tuple
    rank: int

    @staticmethod
    def from_gram(rows) -> "QForm":
        """The form of a square symmetric Gram matrix of int or Fraction entries."""
        g = tuple(map(rational_tuple, rows))
        n = len(g)
        if any(len(r) != n for r in g):
            raise InputError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise InputError("Gram matrix must be symmetric")
        return QForm(g, n)

    @staticmethod
    def diagonal_form(entries) -> "QForm":
        entries = rational_tuple(entries)
        n = len(entries)
        return QForm(tuple(tuple(entries[i] if i == j else 0 for j in range(n))
                           for i in range(n)), n)

    def direct_sum(self, other: "QForm") -> "QForm":
        n, m = self.rank, other.rank
        rows = []
        for i in range(n):
            rows.append(list(self.gram[i]) + [0] * m)
        for i in range(m):
            rows.append([0] * n + list(other.gram[i]))
        return QForm(tuple(tuple(r) for r in rows), n + m)


def diagonalize(q: QForm) -> list:
    """Diagonal entries of a rationally congruent diagonal form.

    Each row is held as integer numerators over one positive denominator.
    Pivots are chosen by zero tests alone, which a row's scale does not
    change.  Eliminating v_k -= (m[k][i] / m[i][i]) v_i leaves the trailing
    block as the Schur complement of the pivot; only rows with a nonzero
    entry in the pivot column change, and each is then divided by the gcd
    of its numerators and denominator, which keeps that denominator the
    least common one of the row.
    """
    n = q.rank
    m, den = [], []
    for r in q.gram:
        d = lcm(*(x.denominator for x in r))
        m.append([x.numerator * (d // x.denominator) for x in r])
        den.append(d)
    diag = []
    for i in range(n):
        if m[i][i] == 0:
            swap = next((k for k in range(i + 1, n) if m[k][k] != 0), None)
            if swap is not None:
                m[i], m[swap] = m[swap], m[i]
                den[i], den[swap] = den[swap], den[i]
                for r in m:
                    r[i], r[swap] = r[swap], r[i]
            else:
                # the trailing block is the Schur complement up to positive row
                # scales, so a zero row in it makes the form degenerate
                l = next((l for l in range(i + 1, n) if m[i][l] != 0), None)
                if l is None:
                    raise InputError("degenerate form")
                # basis v_i += v_l makes the (i, i) entry 2 * m[i][l]
                di, dl = den[i], den[l]
                m[i] = [a * dl + b * di for a, b in zip(m[i], m[l])]
                den[i] = di * dl
                for r in m:
                    r[i] += r[l]
        p = m[i][i]
        diag.append(Fraction(p, den[i]))
        # row_k - (r / p) pivot over den_k is (p row_k - r pivot) / (p den_k):
        # the pivot row's own denominator cancels
        s, tail = (p, m[i][i + 1:]) if p > 0 else (-p, [-x for x in m[i][i + 1:]])
        for k in range(i + 1, n):
            row = m[k]
            r = row[i]
            if r != 0:
                new = [s * a - r * b for a, b in zip(row[i + 1:], tail)]
                d = s * den[k]
                g = gcd(d, *new)
                if g > 1:
                    new = [x // g for x in new]
                    d //= g
                row[i + 1:] = new
                den[k] = d
    return diag


def _factor(n: int, parts=()) -> dict:
    """Prime exponents of a positive integer, by bounded trial division.

    n is cut by repeated gcds with each part in turn, then with what is left
    of itself, so large primes of different parts land in different pieces.
    Division of a piece stops once Miller-Rabin proves its cofactor prime,
    checked before the first divisor and after each prime.
    """
    out = {}
    for h in [*parts, n]:
        while (x := gcd(n, h)) > 1:
            n //= x
            p = 2
            while x > 1:
                if x < _MR_EXACT_BELOW and _is_prime(x):
                    p = x  # a prime cofactor is divided out whole below
                while x % p:
                    p += 1 if p == 2 else 2
                    if p > TRIAL_DIVISION_CAP:
                        raise BoundError(
                            f"factoring needs trial divisors above {TRIAL_DIVISION_CAP}")
                while x % p == 0:
                    x //= p
                    out[p] = out.get(p, 0) + 1
    return out


def squarefree_class(x) -> int:
    """Squarefree integer representing the square class of a nonzero int or Fraction.

    Numerator and denominator are coprime, so the class is the product of
    their squarefree parts, and each is factored on its own.
    """
    (x,) = rational_tuple((x,))
    if x == 0:
        raise InputError("square class of zero")
    return (-1 if x < 0 else 1) * prod(p for part in (abs(x.numerator), x.denominator)
                                       for p, e in _factor(part).items() if e % 2)


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise InputError("Legendre symbol of a multiple of p")
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _is_prime(n: int) -> bool:
    """Is the integer n >= 2 prime?  Miller-Rabin on the first 13 prime bases.

    The test is exact only below _MR_EXACT_BELOW; at or above it BoundError
    is raised before any division.
    """
    if n >= _MR_EXACT_BELOW:
        raise BoundError(f"cannot decide whether an integer of {n.bit_length()} bits is "
                         f"prime: Miller-Rabin on {len(_MR_BASES)} bases is exact only "
                         f"below {_MR_EXACT_BELOW}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        # a composite below 43^2 has a prime factor among the bases
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def hilbert_symbol(a, b, place) -> int:
    """The local Hilbert symbol (a, b) at a prime or "inf".

    a and b are nonzero ints or Fractions, a Fraction read at numerator times
    denominator, a square multiple of it; the place is "inf" or a prime int.
    Any other entry or place raises InputError, and a place whose primality
    is not decided exactly raises BoundError.
    """
    a, b = rational_tuple((a, b))
    if a == 0 or b == 0:
        raise InputError("Hilbert symbol needs nonzero entries")
    if place != "inf" and (type(place) is not int or place < 2 or not _is_prime(place)):
        raise InputError(f"Hilbert symbol place must be a prime or 'inf', not {place!r}")
    return _hilbert_symbol(a.numerator * a.denominator, b.numerator * b.denominator, place)


def _hilbert_symbol(a: int, b: int, p) -> int:
    """(a, b) at "inf" or a prime p, for nonzero a and b; nothing is checked."""
    if p == "inf":
        return -1 if (a < 0 and b < 0) else 1
    alpha, u = _val_unit(a, p)
    beta, v = _val_unit(b, p)
    if p != 2:
        sym = 1
        if alpha % 2 and beta % 2:
            sym *= _legendre(p - 1, p)
        if beta % 2:
            sym *= _legendre(u % p, p)
        if alpha % 2:
            sym *= _legendre(v % p, p)
        return sym
    eps_u = ((u - 1) // 2) % 2
    eps_v = ((v - 1) // 2) % 2
    om_u = ((u * u - 1) // 8) % 2
    om_v = ((v * v - 1) // 8) % 2
    e = eps_u * eps_v + alpha * om_v + beta * om_u
    return -1 if e % 2 else 1


def _val_unit(n: int, p: int):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


@dataclass(frozen=True)
class QFormInvariants:
    rank: int
    signature: tuple            # (positives, negatives)
    discriminant: int           # squarefree representative of det
    hasse: dict                 # place -> +-1 at inf, 2, primes of disc, -1 places

    def to_json(self):
        return {
            "rank": self.rank,
            "signature": list(self.signature),
            "discriminant": self.discriminant,
            "hasse": {str(k): v for k, v in self.hasse.items()},
        }


def invariants(q: QForm) -> QFormInvariants:
    """Signature, discriminant square class, and Hasse symbols of a form.

    Everything is read off the leading minors D_j = a_1 ... a_j of a
    diagonalization, each held as its numerator times its denominator,
    which differs from D_j by a square.  The Hasse symbol at v, the product
    of (a_i, a_j)_v over i < j, is the product of (D_{j-1}, -D_j)_v over j,
    by bilinearity and (a, a) = (a, -1).  For a Gram matrix G with least
    common denominator m, only inf, 2 and the primes of m det G can carry
    -1 (Cassels, *Rational Quadratic Forms*, ch. 8), so only det G = D_n and
    m are factored, each cut first by its gcds with the diagonal entries.
    The report lists inf, 2, the primes of the discriminant and every -1
    place; the product formula is verified over all candidate places.
    """
    diag = diagonalize(q)
    parts = [x for d in diag for x in (abs(d.numerator), d.denominator) if x > 1]
    minors = [d.numerator * d.denominator for d in accumulate(diag, mul, initial=1)]
    pos = sum(1 for d in diag if d > 0)
    det = _factor(abs(minors[-1]), parts)
    disc = (-1 if minors[-1] < 0 else 1) * prod(p for p, e in det.items() if e % 2)
    # a prime of m that divides no diagonal entry divides no minor, so all its symbols are 1
    m = gcd(lcm(*(x.denominator for r in q.gram for x in r)), prod(parts))
    places = ["inf", *sorted({2, *det, *_factor(m, parts)})]
    symbols = {v: prod(_hilbert_symbol(a, -b, v) for a, b in zip(minors, minors[1:]))
               for v in places}
    if prod(symbols.values()) != 1:
        raise AssertionError("Hilbert product formula violated; symbol computation broken")
    hasse = {v: s for v, s in symbols.items() if v in ("inf", 2) or s == -1 or disc % v == 0}
    return QFormInvariants(q.rank, (pos, len(diag) - pos), disc, hasse)


@dataclass(frozen=True)
class CliffordSplitness:
    split: bool
    matrix_size: int | None     # 2^n when split, for rank 2n + 1
    nontrivial_places: tuple    # places where the class of the even Clifford algebra is -1

    def to_json(self):
        return {
            "split": self.split,
            "matrix_size": self.matrix_size,
            "nontrivial_places": [str(p) for p in self.nontrivial_places],
        }


def witt_class_places(q: QForm) -> tuple:
    """Places where the Witt (Clifford) invariant of q is the nontrivial class.

    The invariant is the Hasse symbol corrected by a discriminant factor
    depending on the rank mod 8: nothing for 1, 2; (-1, -d) for 3, 4;
    (-1, -1) for 5, 6; (-1, d) for 7, 0.
    """
    inv = invariants(q)
    d = inv.discriminant
    m = q.rank % 8
    bad = []
    # inf, 2 and every prime dividing d are among the places of inv.hasse
    for place in sorted(inv.hasse, key=str):
        s = inv.hasse[place]
        if m in (3, 4):
            s *= _hilbert_symbol(-1, -d, place)
        elif m in (5, 6):
            s *= _hilbert_symbol(-1, -1, place)
        elif m in (7, 0):
            s *= _hilbert_symbol(-1, d, place)
        if s == -1:
            bad.append(place)
    return tuple(bad)


def even_clifford_split(q: QForm) -> CliffordSplitness:
    """Is the even Clifford algebra of an odd-rank form a matrix algebra over Q?"""
    if q.rank % 2 == 0:
        raise InputError("even-rank forms have a quadratic center; odd rank required")
    bad = witt_class_places(q)  # invariants raises on degenerate input
    split = not bad
    n = (q.rank - 1) // 2
    return CliffordSplitness(split, 2 ** n if split else None, bad)


# ---------------------------------------------------------------------------
# built-in lattices


E8_GRAM = [
    [2, 0, -1, 0, 0, 0, 0, 0],
    [0, 2, 0, -1, 0, 0, 0, 0],
    [-1, 0, 2, -1, 0, 0, 0, 0],
    [0, -1, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, 0, -1, 2],
]

U_GRAM = [[0, 1], [1, 0]]


def e8_form(sign: int = 1) -> QForm:
    return QForm.from_gram([[sign * x for x in r] for r in E8_GRAM])


def hyperbolic_plane() -> QForm:
    return QForm.from_gram(U_GRAM)


def k3_primitive(q_eta: int = 2) -> QForm:
    """(-E8) + (-E8) + U + U + <-q_eta>: the rank-21 primitive K3 form."""
    if q_eta <= 0:
        raise InputError("polarization degree must be positive")
    q = e8_form(-1).direct_sum(e8_form(-1))
    q = q.direct_sum(hyperbolic_plane()).direct_sum(hyperbolic_plane())
    return q.direct_sum(QForm.diagonal_form([-q_eta]))


# ---------------------------------------------------------------------------
# structure-constants oracle for the even Clifford algebra


def clifford_basis_product(S: tuple, T: tuple, diag):
    """Product of basis elements e_S e_T in the Clifford algebra of <diag>.

    Subsets are sorted index tuples; returns (coefficient, symmetric
    difference as a sorted tuple).
    """
    coeff = 1
    out = list(S)
    for t in T:
        # move generator t leftward past the tail of ``out``
        swaps = sum(1 for x in out if x > t)
        if swaps % 2:
            coeff = -coeff
        if t in out:
            coeff *= diag[t]
            out.remove(t)
        else:
            out.append(t)
            out.sort()
    return coeff, tuple(out)


def even_clifford_quaternion_pairs(diag):
    """Commuting quaternion generator pairs inside the even Clifford algebra.

    For rank 3 returns one pair, for rank 5 two pairs whose classes
    multiply to the algebra class.  Each pair (x, y) is certified from
    the multiplication table: the two elements square to x and y, they
    anticommute, and elements of different pairs commute.
    """
    n = len(diag)
    if n not in (3, 5):
        raise InputError("oracle supports ranks 3 and 5")
    gens = [(0, i) for i in range(1, n)]  # e_1 e_i as subset pairs

    def sq(S):
        c, rest = clifford_basis_product(S, S, diag)
        if rest != ():
            raise AssertionError("generator square is not scalar")
        return c

    def anticommute(S, T):
        c1, r1 = clifford_basis_product(S, T, diag)
        c2, r2 = clifford_basis_product(T, S, diag)
        return r1 == r2 and c1 == -c2

    def commute(S, T):
        c1, r1 = clifford_basis_product(S, T, diag)
        c2, r2 = clifford_basis_product(T, S, diag)
        return r1 == r2 and c1 == c2

    pairs = []
    g1, g2 = gens[0], gens[1]
    if not anticommute(g1, g2):
        raise AssertionError("first quaternion pair does not anticommute")
    pairs.append((sq(g1), sq(g2)))
    if n == 5:
        # f1 f2 f3 and f1 f2 f4 in the algebra generated by the e_1 e_i
        def triple(a, b, c):
            coeff = 1
            S = ()
            for g in (gens[a], gens[b], gens[c]):
                cc, S = clifford_basis_product(S, g, diag)
                coeff *= cc
            return coeff, S

        c3, F3 = triple(0, 1, 2)
        c4, F4 = triple(0, 1, 3)
        if not anticommute(F3, F4):
            raise AssertionError("second quaternion pair does not anticommute")
        for F in (F3, F4):
            for g in (g1, g2):
                if not commute(F, g):
                    raise AssertionError("the two quaternion pairs do not commute")
        # the actual generators are c3 e_{F3} and c4 e_{F4}
        pairs.append((c3 * c3 * sq(F3), c4 * c4 * sq(F4)))
    return pairs


def even_clifford_split_oracle(q: QForm) -> CliffordSplitness:
    """Splitness via the explicit even Clifford multiplication table.

    rank 1: the even part is Q.  rank 3: the even part is the quaternion
    algebra generated by e_1 e_2 and e_1 e_3, decided by a bounded search
    for an isotropic vector of its norm form (Legendre's criterion).
    rank 5: the even part is a tensor product of two quaternion algebras
    extracted from the table; its class is their symbol product.

    The table is built on the integers d.numerator * d.denominator, each d
    times the square d.denominator^2, so every square class, place and
    verdict is that of the diagonal entries themselves.
    """
    if q.rank % 2 == 0:
        raise InputError("odd rank required")
    if q.rank == 1:
        return CliffordSplitness(True, 1, ())
    diag = [d.numerator * d.denominator for d in diagonalize(q)]
    pairs = even_clifford_quaternion_pairs(diag)
    if q.rank == 3:
        x, y = (squarefree_class(c) for c in pairs[0])
        split = quaternion_splits_by_search(x, y)
        return CliffordSplitness(split, 2 if split else None,
                                 () if split else quaternion_places(x, y))
    classes = [tuple(squarefree_class(c) for c in p) for p in pairs]
    places = set()
    for x, y in classes:
        places.symmetric_difference_update(quaternion_places(x, y))
    bad = tuple(sorted(places, key=str))
    split = not bad
    return CliffordSplitness(split, 4 if split else None, bad)


def quaternion_places(x: int, y: int) -> tuple:
    """Places where the quaternion algebra (x, y) ramifies, among inf, 2 and the primes of x y.

    x and y are nonzero integers; any other entry raises InputError.
    """
    x, y = int_tuple((x, y))
    if x == 0 or y == 0:
        raise InputError(f"quaternion algebra needs nonzero int entries, not ({x!r}, {y!r})")
    places = ["inf", *sorted({2, *_factor(abs(x)), *_factor(abs(y))})]
    return tuple(v for v in places if _hilbert_symbol(x, y, v) == -1)


def quaternion_splits_by_search(x: int, y: int) -> bool:
    """Does x u^2 + y v^2 = w^2 have a nontrivial rational solution?

    Decided by Legendre's bounded search on the ternary form
    x u^2 + y v^2 - w^2; the reduction to pairwise-coprime squarefree
    coefficients happens inside the search.
    """
    x, y = squarefree_class(x), squarefree_class(y)
    return _legendre_isotropic(x, y, -1)


def _legendre_isotropic(a: int, b: int, c: int) -> bool:
    """Does a x^2 + b y^2 + c z^2 = 0 have a nontrivial integer solution?

    Assumes a, b, c squarefree; divides out common factors pairwise, then
    searches within the Legendre bounds |x| <= sqrt|bc|, |y| <= sqrt|ac|,
    |z| <= sqrt|ab|.
    """
    # pairwise coprime reduction by gcds alone: if g = gcd(a, b) > 1, scaling
    # by g and absorbing g^2 and h^2, h = gcd(g, c), into the variables gives
    # the squarefree (a/g, b/g, (g/h)(c/h)), and |abc| falls by g h^2
    vals = [a, b, c]
    while True:
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            g = gcd(vals[i], vals[j])
            if g > 1:
                h = gcd(g, vals[k])
                vals[i] //= g
                vals[j] //= g
                vals[k] = (g // h) * (vals[k] // h)
                break
        else:
            break
    a, b, c = vals
    if a > 0 and b > 0 and c > 0 or (a < 0 and b < 0 and c < 0):
        return False
    bx = isqrt(abs(b * c))
    by = isqrt(abs(a * c))
    for xx in range(bx + 1):
        for yy in range(by + 1):
            rhs = a * xx * xx + b * yy * yy
            # solve c z^2 = -rhs
            if rhs % c != 0:
                continue
            t = -rhs // c
            if t < 0:
                continue
            z = isqrt(t)
            if z * z == t and (xx or yy or z):
                return True
    return False
