"""Weight multisets of irreducible representations and their branching identities.

Weights are stored internally in doubled coordinates (twice the actual
weight, always integral here) so that half-integral spin weights never
force general rational arithmetic inside the large multiset operations.
The exterior-algebra operations are multiplicity-aware: a weight of
multiplicity m contributes m independent slots.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

from .intmat import BoundError, InputError, IntMatrix
from .rootdata import (
    BasedRootDatum,
    half_sum_positive_roots,
    positive_roots,
    simple_reflections,
    sp_datum,
)


@dataclass(frozen=True)
class WeightMultiset:
    """A finite multiset of weight vectors with positive multiplicities."""

    rank: int
    doubled: tuple   # sorted tuple of (doubled weight tuple, multiplicity)

    @staticmethod
    def from_doubled(rank: int, items) -> "WeightMultiset":
        acc = {}
        for w, m in items:
            if m <= 0:
                raise InputError("multiplicities must be positive")
            w = tuple(int(x) for x in w)
            acc[w] = acc.get(w, 0) + m
        return WeightMultiset(rank, tuple(sorted(acc.items())))

    @staticmethod
    def from_weights(rank: int, weights) -> "WeightMultiset":
        """Build from actual (possibly half-integral) weight vectors."""
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

    @staticmethod
    def trivial(rank: int) -> "WeightMultiset":
        return WeightMultiset.from_doubled(rank, [((0,) * rank, 1)])

    @property
    def dimension(self) -> int:
        return sum(m for _, m in self.doubled)

    def multiplicity(self, weight) -> int:
        dw = tuple(int(2 * Fraction(x)) for x in weight)
        for w, m in self.doubled:
            if w == dw:
                return m
        return 0

    def weights(self):
        """Pairs (weight as tuple of Fractions, multiplicity)."""
        return [(tuple(Fraction(x, 2) for x in w), m) for w, m in self.doubled]

    def add(self, other: "WeightMultiset") -> "WeightMultiset":
        if self.rank != other.rank:
            raise InputError("rank mismatch in multiset sum")
        return WeightMultiset.from_doubled(self.rank, list(self.doubled) + list(other.doubled))

    def scalar_multiple(self, c: int) -> "WeightMultiset":
        if c <= 0:
            raise InputError("scalar multiple must be positive")
        return WeightMultiset.from_doubled(self.rank, [(w, c * m) for w, m in self.doubled])

    def tensor(self, other: "WeightMultiset") -> "WeightMultiset":
        if self.rank != other.rank:
            raise InputError("rank mismatch in tensor product")
        acc = {}
        for w1, m1 in self.doubled:
            for w2, m2 in other.doubled:
                w = tuple(a + b for a, b in zip(w1, w2))
                acc[w] = acc.get(w, 0) + m1 * m2
        return WeightMultiset(self.rank, tuple(sorted(acc.items())))

    def box_tensor(self, other: "WeightMultiset") -> "WeightMultiset":
        """External tensor product: weights are concatenated."""
        acc = {}
        for w1, m1 in self.doubled:
            for w2, m2 in other.doubled:
                acc[w1 + w2] = acc.get(w1 + w2, 0) + m1 * m2
        return WeightMultiset(self.rank + other.rank, tuple(sorted(acc.items())))

    def exterior_power(self, k: int) -> "WeightMultiset":
        """k-th exterior power, with repeated weights treated as distinct slots."""
        if k < 0:
            raise InputError("negative exterior power")
        zero = (0,) * self.rank
        layers = {0: {zero: 1}}
        for w, m in self.doubled:
            new = {}
            for deg, dct in layers.items():
                for j in range(0, min(m, k - deg) + 1):
                    c = comb(m, j)
                    tgt = new.setdefault(deg + j, {})
                    for s, cnt in dct.items():
                        key = tuple(a + j * b for a, b in zip(s, w))
                        tgt[key] = tgt.get(key, 0) + cnt * c
            layers = new
        result = layers.get(k, {})
        return WeightMultiset(self.rank, tuple(sorted(result.items())))

    def full_exterior_algebra(self) -> "WeightMultiset":
        """Direct sum of all exterior powers."""
        zero = (0,) * self.rank
        acc = {zero: 1}
        for w, m in self.doubled:
            new = {}
            for j in range(m + 1):
                c = comb(m, j)
                for s, cnt in acc.items():
                    key = tuple(a + j * b for a, b in zip(s, w))
                    new[key] = new.get(key, 0) + cnt * c
            acc = new
        return WeightMultiset(self.rank, tuple(sorted(acc.items())))

    def __str__(self):
        parts = []
        for w, m in self.doubled:
            vec = "(" + ", ".join(str(Fraction(x, 2)) for x in w) + ")"
            parts.append(f"{vec} x{m}")
        return f"dim {self.dimension}: " + "; ".join(parts)


# ---------------------------------------------------------------------------
# irreducible characters


_FREUDENTHAL_CACHE: dict = {}


def _coroot_table(rd: BasedRootDatum):
    """Coroot vector for every root, transported along the reflection closure."""
    table = {}
    refl = simple_reflections(rd)
    corefl = simple_reflections(
        BasedRootDatum(rd.rank, rd.simple_coroots, rd.simple_roots))
    frontier = []
    for a, av in zip(rd.simple_roots, rd.simple_coroots):
        table[a] = av
        table[tuple(-x for x in a)] = tuple(-x for x in av)
        frontier.append(a)
    while frontier:
        nxt = []
        for b in frontier:
            bv = table[b]
            for s, sv in zip(refl, corefl):
                img = s.apply(b)
                if img not in table:
                    table[img] = sv.apply(bv)
                    table[tuple(-x for x in img)] = tuple(-x for x in table[img])
                    nxt.append(img)
        frontier = nxt
    return table


def _dot(x, y) -> int:
    return sum(a * b for a, b in zip(x, y))


def _dominant_doubled(rd, lam2) -> bool:
    return all(_dot(lam2, av) >= 0 for av in rd.simple_coroots)


@lru_cache(maxsize=None)
def _freudenthal_tables(rd: BasedRootDatum):
    """Per-datum tables of the Freudenthal recursion: (pos2, gram, simple, rho2, rhov2).

    ``pos2`` pairs each doubled positive root with its image under ``gram``,
    the Gram matrix of the Weyl-invariant form sum_b <x, b><y, b> over the
    positive coroots b; ``simple`` holds the (simple root, simple coroot)
    pairs; ``rho2`` and ``rhov2`` are 2 rho and 2 rho-check.
    """
    pos = positive_roots(rd)
    coroot_of = _coroot_table(rd)
    covecs = [coroot_of[b] for b in pos]
    n = rd.rank
    gram = tuple(tuple(sum(cv[i] * cv[j] for cv in covecs) for j in range(n))
                 for i in range(n))
    pos2 = tuple((a2, tuple(_dot(row, a2) for row in gram))
                 for a2 in (tuple(2 * x for x in b) for b in pos))
    rho2 = tuple(sum(b[i] for b in pos) for i in range(n))
    rhov2 = tuple(sum(cv[i] for cv in covecs) for i in range(n))
    return pos2, gram, tuple(zip(rd.simple_roots, rd.simple_coroots)), rho2, rhov2


def irrep_weight_multiset(rd: BasedRootDatum, lam) -> WeightMultiset:
    """Weight multiset of the irreducible with highest weight lam (Freudenthal).

    ``lam`` may be half-integral (spin weights); internally everything is
    doubled.  Results are memoized per datum and highest weight.

    The recursion visits dominant weights only (Moody-Patera, "Fast
    recursion formula for weight multiplicities", Bull. AMS 7, 1982).
    These are the dominant mu <= lam, and each mu < lam has a positive
    root alpha with mu + alpha dominant and <= lam (Stembridge 1998), so
    subtracting positive roots from lam and keeping dominant results
    finds them all.  They are taken in order of the height <lam - mu,
    rho-check>; m(mu + k alpha) is read off the dominant weight of its
    Weyl orbit, which is higher than mu, and each alpha-string stops at
    the first non-weight, since root strings through a weight have no
    gaps.  The simple reflections then expand each Weyl orbit.
    """
    lam2 = tuple(2 * Fraction(x) for x in lam)
    if any(d.denominator != 1 for d in lam2):
        raise InputError("highest weight must be at most half-integral")
    lam2 = tuple(int(d) for d in lam2)
    key = (rd.simple_roots, rd.simple_coroots, rd.rank, lam2)
    if key in _FREUDENTHAL_CACHE:
        return _FREUDENTHAL_CACHE[key]
    if not _dominant_doubled(rd, lam2):
        raise InputError("highest weight must be dominant")
    pos2, gram, simple, rho2, rhov2 = _freudenthal_tables(rd)

    def norm(v):
        return sum(x * _dot(row, v) for x, row in zip(v, gram))

    def dominant(v):
        while True:
            for a, av in simple:
                p = _dot(v, av)
                if p < 0:
                    v = tuple(x - p * y for x, y in zip(v, a))
                    break
            else:
                return v

    dom = [lam2]
    seen = {lam2}
    for mu in dom:
        for a2, _ in pos2:
            nu = tuple(x - y for x, y in zip(mu, a2))
            if nu not in seen and _dominant_doubled(rd, nu):
                seen.add(nu)
                dom.append(nu)
    dom.sort(key=lambda mu: -_dot(mu, rhov2))

    norm_top = norm(tuple(a + b for a, b in zip(lam2, rho2)))
    mult = {lam2: 1}
    for mu in dom[1:]:
        total = 0
        for a2, ga2 in pos2:
            w = tuple(x + y for x, y in zip(mu, a2))
            while (m := mult.get(dominant(w))) is not None:
                total += m * _dot(w, ga2)
                w = tuple(x + y for x, y in zip(w, a2))
        denom = norm_top - norm(tuple(a + b for a, b in zip(mu, rho2)))
        if total <= 0 or denom <= 0:
            raise AssertionError("dominant weight below lam without a positive multiplicity")
        if 2 * total % denom != 0:
            raise AssertionError("non-integral multiplicity in the recursion")
        mult[mu] = 2 * total // denom

    full = {}
    for mu, m in mult.items():
        full[mu] = m
        orbit = [mu]
        for v in orbit:
            for a, av in simple:
                p = _dot(v, av)
                if p > 0:
                    img = tuple(x - p * y for x, y in zip(v, a))
                    if img not in full:
                        full[img] = m
                        orbit.append(img)
    ms = WeightMultiset(rd.rank, tuple(sorted(full.items())))
    _FREUDENTHAL_CACHE[key] = ms
    return ms


def weyl_dimension(rd: BasedRootDatum, lam) -> int:
    """Dimension of the irreducible with highest weight lam (product formula)."""
    lamf = tuple(Fraction(x) for x in lam)
    lam2 = tuple(2 * x for x in lamf)
    if any(x.denominator != 1 for x in lam2):
        raise InputError("highest weight must be at most half-integral")
    if not _dominant_doubled(rd, tuple(int(x) for x in lam2)):
        raise InputError("highest weight must be dominant")
    rho = half_sum_positive_roots(rd)
    coroot_of = _coroot_table(rd)
    dim = Fraction(1)
    for b in positive_roots(rd):
        bv = coroot_of[b]
        num = sum((l + r) * c for l, r, c in zip(lamf, rho, bv))
        den = sum(r * c for r, c in zip(rho, bv))
        dim *= Fraction(num, den)
    if dim.denominator != 1:
        raise AssertionError("Weyl dimension did not come out integral")
    return int(dim)


# ---------------------------------------------------------------------------
# spin weights


def spin_weight_multiset(n: int, family: str, half: str = "both") -> WeightMultiset:
    """Spin (B) or half-spin (D) weight multisets: all (+-1/2, ..., +-1/2).

    For D the plus half keeps sign vectors with an even number of minus
    signs, the minus half the odd ones; ``half`` is ignored for family B.
    """
    family = family.upper()
    if family not in ("B", "D"):
        raise InputError("family must be B or D")
    if half not in ("plus", "minus", "both"):
        raise InputError("half must be plus, minus, or both")
    if n < 0:
        raise InputError("rank must be non-negative")
    if n == 0:
        return WeightMultiset.from_doubled(0, [((), 1)])
    items = []
    for signs in product((1, -1), repeat=n):
        if family == "D" and half != "both":
            minus = sum(1 for s in signs if s < 0)
            if half == "plus" and minus % 2 == 1:
                continue
            if half == "minus" and minus % 2 == 0:
                continue
        items.append((signs, 1))
    return WeightMultiset.from_doubled(n, items)


# ---------------------------------------------------------------------------
# restriction along torus maps


@dataclass(frozen=True)
class LatticeMap:
    """A linear map on weights, applied entrywise to a multiset.

    ``matrix`` maps source-torus weight coordinates to target-torus
    coordinates; entries may be half-integral, in which case application
    to a given multiset must still produce half-integral weights.
    """

    source_rank: int
    target_rank: int
    numer: IntMatrix   # matrix of 2 * entries
    denom: int = 2

    @staticmethod
    def from_rows(rows, source_rank=None) -> "LatticeMap":
        fr = [[Fraction(x) for x in r] for r in rows]
        target = len(fr)
        source = len(fr[0]) if fr and fr[0] else (source_rank or 0)
        if any((2 * x).denominator != 1 for r in fr for x in r):
            raise InputError("lattice map entries must be at most half-integral")
        if fr:
            numer = IntMatrix.from_rows([[int(2 * x) for x in r] for r in fr])
        else:
            numer = IntMatrix.zero(0, source)
        return LatticeMap(source, target, numer)

    @staticmethod
    def identity(n: int) -> "LatticeMap":
        return LatticeMap(n, n, IntMatrix.from_rows(
            [[2 if i == j else 0 for j in range(n)] for i in range(n)]))

    def apply_doubled(self, w2):
        out = self.numer.apply(w2)
        res = []
        for x in out:
            if x % 2 != 0:
                raise InputError("denominator violation: image weight is not half-integral")
            res.append(x // 2)
        return tuple(res)


def restrict_multiset(f: LatticeMap, W: WeightMultiset) -> WeightMultiset:
    """Pushforward of a weight multiset along a torus-level map."""
    if W.rank != f.source_rank:
        raise InputError("multiset rank does not match the map source")
    acc = {}
    for w, m in W.doubled:
        img = f.apply_doubled(w)
        acc[img] = acc.get(img, 0) + m
    out = WeightMultiset(f.target_rank, tuple(sorted(acc.items())))
    if out.dimension != W.dimension:
        raise AssertionError("restriction changed the total dimension")
    return out


def so_block_embedding(blocks) -> LatticeMap:
    """Torus map for a product of odd/even orthogonal algebras inside so_N.

    ``blocks`` lists the sizes c_1, ..., c_k; N = sum c_i.  The first
    floor(c_i/2) available coordinates feed block i; leftover coordinates
    of so_N map to zero.
    """
    N = sum(blocks)
    n_big = N // 2
    ranks = [c // 2 for c in blocks]
    rows = []
    used = 0
    for r in ranks:
        for j in range(r):
            row = [0] * n_big
            row[used + j] = 1
            rows.append(row)
        used += r
    return LatticeMap.from_rows(rows, source_rank=n_big) if rows else \
        LatticeMap(n_big, 0, IntMatrix.zero(0, n_big))


def gl_block_embedding(c: int, d0: int) -> LatticeMap:
    """Torus map for gl_c^{d0} inside so_{2*c*d0}: coordinates pass through."""
    n_big = c * d0
    rows = [[2 if i == j else 0 for j in range(n_big)] for i in range(c * d0)]
    return LatticeMap(n_big, c * d0, IntMatrix.from_rows(rows))


# ---------------------------------------------------------------------------
# spin branching checks


@dataclass(frozen=True)
class BranchReport:
    ok: bool
    lhs_dim: int
    rhs_dim: int
    description: str

    def to_json(self):
        return {"pass": self.ok, "lhs_dim": self.lhs_dim,
                "rhs_dim": self.rhs_dim, "description": self.description}


def _spin_of_so(N: int, half: str = "both") -> WeightMultiset:
    """Spin multiset of so_N: family B for odd N, D for even."""
    if N % 2:
        return spin_weight_multiset(N // 2, "B")
    return spin_weight_multiset(N // 2, "D", half)


def verify_spin_branching(c: int, d: int, variant: str = "so",
                          bound: int = 2 ** 20) -> BranchReport:
    """Restrict the (half-)spin of so_{cd} along a product of d copies of so_c.

    variant "so" checks the sign-vector decomposition (c even), the
    isotypic multiplicity 2^{d0-1} (c odd, d even), or 2^{d0} (both odd).
    variant "gl" checks the exterior-power decomposition along gl_c^{d/2}.
    """
    if c < 2 or d < 1:
        raise InputError("need c >= 2 and d >= 1")
    N = c * d
    if 2 ** (N // 2) > bound:
        raise BoundError(f"spin dimension 2^{N // 2} exceeds the bound {bound}")
    if variant == "gl":
        return _verify_gl_branching(c, d)
    if variant != "so":
        raise InputError(f"unknown variant {variant!r}")

    emb = so_block_embedding([c] * d)
    r_c = c // 2
    if N % 2:  # both c and d odd
        lhs = restrict_multiset(emb, _spin_of_so(N))
        w_c = spin_weight_multiset(r_c, "B")
        rhs = w_c
        for _ in range(d - 1):
            rhs = rhs.box_tensor(w_c)
        d0 = (d - 1) // 2
        rhs = rhs.scalar_multiple(2 ** d0) if d0 else rhs
        desc = f"spin(so{N}) | so{c}^{d} = 2^{d0} (box of spins)"
    elif c % 2 == 0:
        lhs = restrict_multiset(emb, _spin_of_so(N, "plus"))
        rhs = None
        for signs in product(("plus", "minus"), repeat=d):
            if sum(1 for s in signs if s == "minus") % 2:
                continue
            term = spin_weight_multiset(r_c, "D", signs[0])
            for s in signs[1:]:
                term = term.box_tensor(spin_weight_multiset(r_c, "D", s))
            rhs = term if rhs is None else rhs.add(term)
        desc = f"plus-half-spin(so{N}) | so{c}^{d} = even-sign half-spin blocks"
    else:  # c odd, d even
        lhs = restrict_multiset(emb, _spin_of_so(N, "plus"))
        w_c = spin_weight_multiset(r_c, "B")
        rhs = w_c
        for _ in range(d - 1):
            rhs = rhs.box_tensor(w_c)
        d0 = d // 2
        rhs = rhs.scalar_multiple(2 ** (d0 - 1)) if d0 > 1 else rhs
        desc = f"plus-half-spin(so{N}) | so{c}^{d} = 2^{d0 - 1} (box of spins)"
    return BranchReport(lhs.doubled == rhs.doubled, lhs.dimension, rhs.dimension, desc)


def _verify_gl_branching(c: int, d: int) -> BranchReport:
    if d % 2:
        raise InputError("the gl variant needs an even number of blocks")
    d0 = d // 2
    n_big = c * d0
    emb = gl_block_embedding(c, d0)
    lhs = restrict_multiset(emb, _spin_of_so(2 * n_big, "plus"))
    rhs = None
    vend = WeightMultiset.from_doubled(
        c, [(tuple(-2 if i == j else 0 for i in range(c)), 1) for j in range(c)])
    shift = (1,) * c  # doubled coordinates of (1/2, ..., 1/2)
    block_terms = []
    for i in range(c + 1):
        ext = vend.exterior_power(i)
        shifted = WeightMultiset.from_doubled(
            c, [(tuple(a + s for a, s in zip(w, shift)), m) for w, m in ext.doubled])
        block_terms.append(shifted)
    for choice in product(range(c + 1), repeat=d0):
        if sum(choice) % 2:
            continue
        term = block_terms[choice[0]]
        for i in choice[1:]:
            term = term.box_tensor(block_terms[i])
        rhs = term if rhs is None else rhs.add(term)
    desc = f"plus-half-spin(so{2 * n_big}) | gl{c}^{d0} = even exterior powers"
    return BranchReport(lhs.doubled == rhs.doubled, lhs.dimension, rhs.dimension, desc)


def verify_spin_factorization(a: int, t: int, bound: int = 2 ** 20) -> BranchReport:
    """Full spin of so_{a+t} restricted along so_a x so_t.

    Equals the box product of the full spins, doubled when both a and t
    are odd.
    """
    if a < 2 or t < 2:
        raise InputError("need block sizes >= 2")
    N = a + t
    if 2 ** (N // 2 + 1) > bound:
        raise BoundError("spin dimension exceeds the bound")
    emb = so_block_embedding([a, t])
    lhs = restrict_multiset(emb, _spin_of_so(N, "both"))
    rhs = _spin_of_so(a, "both").box_tensor(_spin_of_so(t, "both"))
    if a % 2 and t % 2:
        rhs = rhs.scalar_multiple(2)
    desc = f"spin(so{N}) | so{a} x so{t}" + (" with multiplicity 2" if a % 2 and t % 2 else "")
    return BranchReport(lhs.doubled == rhs.doubled, lhs.dimension, rhs.dimension, desc)


# ---------------------------------------------------------------------------
# the symplectic-to-orthogonal lift at the torus level


def _wedge2_weight_pairs(g: int):
    """Nonzero weights of wedge^2(standard) minus one zero: ordered +- pairs."""
    plus = []
    for i in range(g):
        for j in range(i + 1, g):
            v = [0] * g
            v[i] = v[j] = 1
            plus.append(tuple(v))   # e_i + e_j
    for i in range(g):
        for j in range(g):
            if i < j:
                v = [0] * g
                v[i], v[j] = 1, -1
                plus.append(tuple(v))  # e_i - e_j, i < j chosen as the positive one
    return sorted(plus, reverse=True)


def kuga_satake_embedding(g: int) -> LatticeMap:
    """Torus map from characters of SO_N to Sp_2g, N = C(2g, 2) - 1.

    Coordinate chi_k goes to the k-th positive weight pair of the
    complement of the trivial representation in wedge^2(standard); the
    g - 1 leftover coordinates (and the odd slot when N is odd) go to 0.
    """
    if g < 1:
        raise InputError("g must be >= 1")
    N = comb(2 * g, 2) - 1
    n = N // 2
    pairs = _wedge2_weight_pairs(g)
    rows = []
    for i in range(g):
        rows.append([2 * pairs[k][i] if k < len(pairs) else 0 for k in range(n)])
    return LatticeMap(n, g, IntMatrix(g, n, tuple(tuple(r) for r in rows)))


def kuga_satake_spin_pullback(g: int, half: str = "both") -> WeightMultiset:
    """Pull the spin multiset of SO_N back to the symplectic torus."""
    N = comb(2 * g, 2) - 1
    if N == 0:
        return WeightMultiset.from_doubled(g, [((0,) * g, 1)])
    f = kuga_satake_embedding(g)
    return restrict_multiset(f, _spin_of_so(N, half))


def center_action_parity(g: int) -> str:
    """Value of the pulled-back spin weights at the central element -1.

    Every weight evaluates to the same sign; the proof is carried out on
    the paired data: flipping one sign changes the exponent by the
    coordinate sum of that pair, which is always even.
    """
    if g < 1:
        raise InputError("g must be >= 1")
    pairs = _wedge2_weight_pairs(g)
    total = 0
    for p in pairs:
        s = sum(p)
        if s % 2 != 0:
            raise AssertionError("pulled-back spin weights do not share a sign at -1")
        total += s // 2
    return "central_element_c" if total % 2 else "trivial"


def center_action_parity_by_enumeration(g: int) -> set:
    """Signs of every pulled-back spin weight at -1, by direct enumeration."""
    ms = kuga_satake_spin_pullback(g)
    signs = set()
    for w, _ in ms.doubled:
        s = sum(w)
        if s % 2 != 0:
            raise AssertionError("weight does not evaluate to a sign at -1")
        signs.add((-1) ** ((s // 2) % 2))
    return signs


@dataclass(frozen=True)
class PlethysmReport:
    ok: bool
    lhs_dim: int
    rhs_dim: int
    g: int

    def to_json(self):
        return {"pass": self.ok, "lhs_dim": self.lhs_dim, "rhs_dim": self.rhs_dim, "g": self.g}


def sp_standard_multiset(g: int) -> WeightMultiset:
    return WeightMultiset.from_doubled(
        g, [(tuple(2 if i == j else 0 for i in range(g)), 1) for j in range(g)]
           + [(tuple(-2 if i == j else 0 for i in range(g)), 1) for j in range(g)])


def verify_plethysm(g: int, bound: int = 3) -> PlethysmReport:
    """Full exterior algebra of wedge^2(standard) against 2^g copies of V (x) V.

    V is the symplectic irreducible with highest weight
    omega_1 + ... + omega_{g-1}; the comparison is a full multiset equality.
    """
    if g < 1:
        raise InputError("g must be >= 1")
    if g > bound:
        raise BoundError(f"plethysm bound exceeded: g={g} > {bound}")
    std = sp_standard_multiset(g)
    lhs = std.exterior_power(2).full_exterior_algebra()
    lam = tuple(g - 1 - i for i in range(g))
    V = irrep_weight_multiset(sp_datum(g), lam)
    rhs = V.tensor(V).scalar_multiple(2 ** g)
    return PlethysmReport(lhs.doubled == rhs.doubled, lhs.dimension, rhs.dimension, g)
