"""Answers computed apart from the program, with the standard library only.

Nothing here imports ``liftcalc``: each function re-derives an expected
value by a route of its own (a gcd criterion, a constructed Smith form,
a closed-form dimension, a known table) or tests a property the
program's answer must have.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import gcd, isqrt


# order of the centre of the simply connected simple group
def center_order(family: str, rank: int) -> int:
    if family == "A":
        return rank + 1
    if family in ("B", "C"):
        return 2
    if family == "D":
        return 4
    return {"E6": 3, "E7": 2, "E8": 1, "F4": 1, "G2": 1}[f"{family}{rank}"]


def minus_one_in_weyl(family: str, rank: int) -> bool:
    """Is -1 in the Weyl group?  A1, B_n, C_n, D_n for even n, E7, E8, F4, G2."""
    if family == "A":
        return rank == 1
    if family in ("B", "C"):
        return True
    if family == "D":
        return rank % 2 == 0
    return f"{family}{rank}" in ("E7", "E8", "F4", "G2")


def simple_type_row(family: str, rank: int):
    """(centre order, obstruction possible, automorphic counterexample) of a simple type.

    Obstruction is possible exactly when the centre has even order; the
    counterexample needs, in addition, -1 in the Weyl group.
    """
    order = center_order(family, rank)
    even = order % 2 == 0
    return order, even, even and minus_one_in_weyl(family, rank)


def simple_types(max_rank: int):
    """The simply connected simple types up to a rank, as (family, rank)."""
    out = [("A", n) for n in range(1, max_rank + 1)]
    out += [(f, n) for n in range(2, max_rank + 1) for f in ("B", "C")]
    out += [("D", n) for n in range(4, max_rank + 1)]
    out += [("E", n) for n in (6, 7, 8) if n <= max_rank]
    out += [("F", 4)] if max_rank >= 4 else []
    out += [("G", 2)] if max_rank >= 2 else []
    return out


# ---------------------------------------------------------------------------
# integer matrices


def mat_vec(rows, vec):
    return tuple(sum(a * b for a, b in zip(r, vec)) for r in rows)


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(r, c)) for c in bt] for r in a]


def elementary(n, rng, steps):
    """A product of seeded elementary matrices and its inverse.

    Each step adds c times one column to another (c in -2..2, c != 0) or
    swaps two columns; the inverse undoes the steps on rows, in reverse.
    """
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            for r in m:
                r[i], r[j] = r[j], r[i]
            inv[i], inv[j] = inv[j], inv[i]
        else:
            c = rng.choice((-2, -1, 1, 2))
            for r in m:
                r[j] += c * r[i]
            inv[i] = [a - c * b for a, b in zip(inv[i], inv[j])]
    return m, inv


def lift_exists_constructed(p_inv, d, lam) -> bool:
    """For Q = P [diag(d) | 0] R: a lift of lam exists iff P^-1 lam = 0 mod d."""
    c = mat_vec(p_inv, lam)
    return all(ci % di == 0 for ci, di in zip(c, d))


def lift_exists_row(row, lam: int) -> bool:
    """For a 1 x k quotient: a lift exists iff gcd(row) divides lam."""
    return lam % gcd(*row) == 0


def det(rows) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def signature(rows):
    """(positives, negatives) of a symmetric form, by symmetric elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    pos = neg = 0
    alive = list(range(n))
    while alive:
        k = next((i for i in alive if m[i][i] != 0), None)
        if k is None:
            # all diagonal entries vanish: v_i + v_j has norm 2 m[i][j] != 0
            i, j = next((i, j) for i in alive for j in alive if i != j and m[i][j] != 0)
            for t in range(n):
                m[i][t] += m[j][t]
            for t in range(n):
                m[t][i] += m[t][j]
            k = i
        d = m[k][k]
        pos += d > 0
        neg += d < 0
        alive.remove(k)
        for i in alive:
            f = m[i][k] / d
            if f:
                for t in range(n):
                    m[i][t] -= f * m[k][t]
                for t in range(n):
                    m[t][i] -= f * m[t][k]
    return pos, neg


def is_rational_square(x: Fraction) -> bool:
    x = Fraction(x)
    if x < 0:
        return False
    return all(isqrt(v) ** 2 == v for v in (x.numerator, x.denominator))


def hilbert_places(a: int, b: int) -> list:
    """"inf", 2 and the odd primes dividing ab: every place where (a, b) can be -1."""
    n = abs(a * b)
    while n % 2 == 0:
        n //= 2
    places = ["inf", 2]
    p = 3
    while p * p <= n:
        if n % p == 0:
            places.append(p)
            while n % p == 0:
                n //= p
        p += 2
    return places + ([n] if n > 1 else [])


# ---------------------------------------------------------------------------
# weights of Sp_2g in e-coordinates


def sp_weyl_dimension(lam) -> int:
    """Weyl dimension formula for Sp_2g, rho = (g, g-1, ..., 1)."""
    g = len(lam)
    rho = [g - i for i in range(g)]
    lr = [Fraction(l) + r for l, r in zip(lam, rho)]
    num = Fraction(1)
    den = Fraction(1)
    for i in range(g):
        num *= lr[i]          # long roots 2 e_i, pairing with e_i
        den *= rho[i]
        for j in range(i + 1, g):
            num *= (lr[i] - lr[j]) * (lr[i] + lr[j])
            den *= (rho[i] - rho[j]) * (rho[i] + rho[j])
    out = num / den
    if out.denominator != 1:
        raise ArithmeticError("dimension formula gave a fraction")
    return int(out)


def signed_permutation_invariant(doubled) -> bool:
    """Is a multiset {weight: multiplicity} invariant under all signed permutations?"""
    table = dict(doubled)
    if not table:
        return True
    g = len(next(iter(table)))
    for w, m in table.items():
        for perm in permutations(range(g)):
            for signs in product((1, -1), repeat=g):
                img = tuple(signs[i] * w[perm[i]] for i in range(g))
                if table.get(img) != m:
                    return False
    return True


def sp_dominant_weights(g: int, top: int):
    """All dominant Sp_2g weights l_1 >= ... >= l_g >= 0 with l_1 <= top."""
    out = []

    def rec(prefix, bound):
        if len(prefix) == g:
            out.append(tuple(prefix))
            return
        for v in range(bound, -1, -1):
            rec(prefix + [v], v)

    rec([], top)
    return out


def spin_dimension(n: int, family: str, half: str) -> int:
    if family == "B" or half == "both":
        return 2 ** n
    return 2 ** (n - 1)


# ---------------------------------------------------------------------------
# the Heisenberg group


def heisenberg_determinants(n: int, alpha: int) -> dict:
    """det rho(A), rho(B), rho(Z) as (sign, zeta exponent mod n), from the definition.

    rho(A) is the n-cycle (sign (-1)^(n-1)); rho(B) is diagonal with
    entries zeta^(alpha j), j < n; rho(Z) is zeta^alpha times the identity.
    """
    return {"A": ((-1) ** (n - 1), 0),
            "B": (1, (alpha * n * (n - 1) // 2) % n),
            "Z": (1, (alpha * n) % n)}


def units(n: int):
    return [a for a in range(1, n) if gcd(a, n) == 1]

