"""Weight multisets of irreducible representations and their branching identities.

Weights are stored internally in doubled coordinates (twice the actual
weight, always integral here) so that half-integral spin weights never
force general rational arithmetic inside the large multiset operations.
The exterior-algebra operations are multiplicity-aware: a weight of
multiplicity m contributes m independent slots.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import comb
from operator import add, mul, sub

from .intmat import BoundError, InputError, IntMatrix, int_tuple, rational_tuple
from .rootdata import BasedRootDatum, positive_coroots, positive_roots, sp_datum

# Largest rank spin_weight_multiset accepts: it enumerates 2^rank sign
# vectors.  ``spin-weights --family B`` takes 0.9-1.0 s at rank 15 and, with
# the bound raised, 1.7-1.8 s at rank 16 as a fresh process on a 2-vCPU Xeon
# with Python 3.11, nearly all of it in the report.  The restriction of a spin
# multiset along a torus map enumerates no sign vectors; it raises instead
# once it would hold more than 2^MAX_SPIN_RANK distinct partial weights.
MAX_SPIN_RANK = 15

# Largest g verify_plethysm accepts: the exterior algebra of wedge^2 of the
# standard representation has dimension 2^(g(2g-1)).  ``plethysm-check`` at
# g = 4 (2^28) takes 0.6-0.7 s as a fresh process on a 2-vCPU Xeon with
# Python 3.11; g = 5 ran past 20 s.
MAX_PLETHYSM_G = 4


@dataclass(frozen=True)
class WeightMultiset:
    """A finite multiset of weight vectors with positive multiplicities."""

    rank: int
    doubled: tuple   # sorted tuple of (doubled weight tuple, multiplicity)

    @staticmethod
    def from_doubled(rank: int, items) -> "WeightMultiset":
        """Items (doubled weight of rank ints, positive int multiplicity), merged."""
        acc = {}
        for w, m in items:
            w, (m,) = int_tuple(w), int_tuple((m,))
            if len(w) != rank:
                raise InputError(f"weight {w} has length {len(w)}, expected {rank}")
            if m <= 0:
                raise InputError("multiplicities must be positive")
            acc[w] = acc.get(w, 0) + m
        return WeightMultiset(rank, tuple(sorted(acc.items())))

    @property
    def dimension(self) -> int:
        return sum(m for _, m in self.doubled)

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
                w = tuple(map(add, w1, w2))
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
        result = self._exterior_layers(k).get(k, {})
        return WeightMultiset(self.rank, tuple(sorted(result.items())))

    def _exterior_layers(self, k: int) -> dict:
        """Degree -> weight counts of every exterior power up to degree k, in one fold."""
        zero = (0,) * self.rank
        layers = {0: {zero: 1}}
        for w, m in self.doubled:
            new = {}
            for deg, dct in layers.items():
                for j in range(0, min(m, k - deg) + 1):
                    c, jw = comb(m, j), tuple(j * b for b in w)
                    tgt = new.setdefault(deg + j, {})
                    for s, cnt in dct.items():
                        key = tuple(map(add, s, jw))
                        tgt[key] = tgt.get(key, 0) + cnt * c
            layers = new
        return layers

    def full_exterior_algebra(self) -> "WeightMultiset":
        """Direct sum of all exterior powers."""
        zero = (0,) * self.rank
        acc = {zero: 1}
        for w, m in self.doubled:
            new = {}
            for j in range(m + 1):
                c, jw = comb(m, j), tuple(j * b for b in w)
                for s, cnt in acc.items():
                    key = tuple(map(add, s, jw))
                    new[key] = new.get(key, 0) + cnt * c
            acc = new
        return WeightMultiset(self.rank, tuple(sorted(acc.items())))


# ---------------------------------------------------------------------------
# irreducible characters


def _dot(x, y) -> int:
    return sum(map(mul, x, y))


def _dominant_doubled(simple_coroots, lam2) -> bool:
    return all(_dot(lam2, av) >= 0 for av in simple_coroots)


def _doubled_highest_weight(rd: BasedRootDatum, lam) -> tuple:
    """2 lam as integers, once lam has the datum's rank, is half-integral and
    dominant, and pairs to an integer with every simple coroot."""
    lam2 = tuple(2 * x for x in rational_tuple(lam))
    if len(lam2) != rd.rank:
        raise InputError(f"highest weight has length {len(lam2)} but the datum has rank {rd.rank}")
    if any(d.denominator != 1 for d in lam2):
        raise InputError("highest weight must be at most half-integral")
    lam2 = int_tuple(lam2)
    pairings = [_dot(lam2, av) for av in rd.simple_coroots]
    if any(p < 0 for p in pairings):
        raise InputError("highest weight must be dominant")
    if any(p % 2 for p in pairings):
        raise InputError("highest weight must pair to an integer with every simple coroot")
    return lam2


@cache
def _freudenthal_tables(rd):
    """Per-datum tables of the Freudenthal recursion: (pos2, gram, rho2, rhov2, covecs).

    ``pos2`` pairs each doubled positive root with its image under ``gram``,
    the Gram matrix of the Weyl-invariant form sum_b <x, b><y, b> over the
    positive coroots b, which ``covecs`` lists; ``rho2`` and ``rhov2`` are
    2 rho and 2 rho-check.
    """
    rank = rd.rank
    pos, covecs = positive_roots(rd), positive_coroots(rd)
    gram = tuple(tuple(sum(cv[i] * cv[j] for cv in covecs) for j in range(rank))
                 for i in range(rank))
    pos2 = tuple((a2, tuple(_dot(row, a2) for row in gram))
                 for a2 in (tuple(2 * x for x in b) for b in pos))
    rho2 = tuple(sum(b[i] for b in pos) for i in range(rank))
    rhov2 = tuple(sum(cv[i] for cv in covecs) for i in range(rank))
    return pos2, gram, rho2, rhov2, covecs


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
    rho-check>, and the simple reflections expand each Weyl orbit into one
    table as soon as its multiplicity is known.  The walk holds each orbit
    element with its simple-coroot pairings, on which s_i subtracts a
    multiple of row i of the Cartan matrix.  The orbit of mu + k alpha,
    k >= 1, has its dominant weight higher than mu, so m(mu + k alpha) is
    one lookup there, a weight missing from the table is not a weight, and
    each alpha-string stops at the first one missing, since root strings
    through a weight have no gaps.
    """
    return _freudenthal(rd, _doubled_highest_weight(rd, lam))


@cache
def _freudenthal(rd, lam2) -> WeightMultiset:
    pos2, gram, rho2, rhov2, _ = _freudenthal_tables(rd)
    simple_roots, simple_coroots = rd.simple_roots, rd.simple_coroots

    def norm(v):
        return sum(x * _dot(row, v) for x, row in zip(v, gram))

    @cache
    def step(i, p):
        # what s_i takes off a weight pairing to p with alpha_i^vee, and off
        # its pairings: p alpha_i and p C[i], C[i] the pairings of alpha_i
        a = simple_roots[i]
        return (tuple(p * y for y in a),
                tuple(p * _dot(a, av) for av in simple_coroots))

    full = {}

    def expand(mu, m):
        # each orbit element v carries its simple-coroot pairings pv, which
        # s_i sends to pv - pv[i] C[i]: the walk takes no dot product
        full[mu] = m
        orbit = [(mu, tuple(_dot(mu, av) for av in simple_coroots))]
        for v, pv in orbit:
            for i, p in enumerate(pv):
                if p > 0:
                    da, dp = step(i, p)
                    img = tuple(map(sub, v, da))
                    if img not in full:
                        full[img] = m
                        orbit.append((img, tuple(map(sub, pv, dp))))

    dom = [lam2]
    seen = {lam2}
    for mu in dom:
        for a2, _ in pos2:
            nu = tuple(map(sub, mu, a2))
            if nu not in seen and _dominant_doubled(simple_coroots, nu):
                seen.add(nu)
                dom.append(nu)
    dom.sort(key=lambda mu: -_dot(mu, rhov2))

    norm_top = norm(tuple(map(add, lam2, rho2)))
    expand(lam2, 1)
    for mu in dom[1:]:
        total = 0
        for a2, ga2 in pos2:
            w = tuple(map(add, mu, a2))
            while (m := full.get(w)) is not None:
                total += m * _dot(w, ga2)
                w = tuple(map(add, w, a2))
        denom = norm_top - norm(tuple(map(add, mu, rho2)))
        if total <= 0 or denom <= 0:
            raise AssertionError("dominant weight below lam without a positive multiplicity")
        if 2 * total % denom != 0:
            raise AssertionError("non-integral multiplicity in the recursion")
        expand(mu, 2 * total // denom)
    return WeightMultiset(rd.rank, tuple(sorted(full.items())))


def weyl_dimension(rd: BasedRootDatum, lam) -> int:
    """Dimension of the irreducible with highest weight lam (product formula).

    prod <lam + rho, b> / <rho, b> over the positive coroots b, taken in
    doubled coordinates as prod <2 lam + 2 rho, b> / prod <2 rho, b>.
    """
    lam2 = _doubled_highest_weight(rd, lam)
    _, _, rho2, _, covecs = _freudenthal_tables(rd)
    top = tuple(a + b for a, b in zip(lam2, rho2))
    num = den = 1
    for cv in covecs:
        num *= _dot(top, cv)
        den *= _dot(rho2, cv)
    if num % den != 0:
        raise AssertionError("Weyl dimension did not come out integral")
    return num // den


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
    if n > MAX_SPIN_RANK:
        raise BoundError(f"spin rank {n} exceeds the bound {MAX_SPIN_RANK}")
    if n == 0:
        return WeightMultiset(0, (((), 1),))
    # product yields each sign vector once, already in sorted order
    signs = product((-1, 1), repeat=n)
    if family == "D" and half != "both":
        parity = 1 if half == "minus" else 0
        signs = (s for s in signs if s.count(-1) % 2 == parity)
    return WeightMultiset(n, tuple((s, 1) for s in signs))


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

    @staticmethod
    def from_rows(rows, source_rank=None) -> "LatticeMap":
        """The map of rows of half-integers, each of length source_rank if given."""
        if source_rank is not None:
            (source_rank,) = int_tuple((source_rank,))
        numer = [tuple(2 * x for x in rational_tuple(r)) for r in rows]
        if any(x.denominator != 1 for r in numer for x in r):
            raise InputError("lattice map entries must be at most half-integral")
        numer = IntMatrix.from_rows(numer) if numer else IntMatrix.zero(0, source_rank or 0)
        if source_rank is not None and numer.cols != source_rank:
            raise InputError(f"rows have length {numer.cols} but source_rank is {source_rank}")
        return LatticeMap(numer.cols, numer.rows, numer)

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


def _require_spin_images(N: int, k: int):
    """Refuse to restrict the spin of so_N along a map with k linearly
    independent columns: their 2^k subset sums are distinct images."""
    if k > MAX_SPIN_RANK:
        raise BoundError(f"restricting the spin of so{N} needs at least 2^{k} "
                         f"distinct weights, above the bound 2^{MAX_SPIN_RANK}")


def _require_half(N: int, half: str):
    """Refuse a half other than plus, minus or both where so_N has two (N even)."""
    if N % 2 == 0 and half not in ("plus", "minus", "both"):
        raise InputError("half must be plus, minus, or both")


def _spin_restriction(f: LatticeMap, N: int, half: str = "both") -> WeightMultiset:
    """Image of the (half-)spin multiset of so_N under f, without sign vectors.

    Equals ``restrict_multiset(f, _spin_of_so(N, half))``.  A sign vector s
    has doubled image sum_k s_k c_k / 2 over the columns c_k of ``f.numer``,
    that is (sum_k c_k) / 2 minus the c_k with s_k < 0.  So the image
    multiset is a convolution: the columns are folded in one at a time, each
    either kept out or subtracted, and equal partial images are merged.  For
    a half-spin of D each state also carries the parity of its minus signs,
    and the end keeps the wanted parity.  Distinct partial states never get
    fewer, so more than 2^MAX_SPIN_RANK of them raises ``BoundError``.
    """
    n = N // 2
    _require_half(N, half)
    if f.source_rank != n:
        raise InputError("multiset rank does not match the map source")
    if any(sum(r) % 2 for r in f.numer.entries):
        raise InputError("denominator violation: image weight is not half-integral")
    cols = f.numer.transpose().entries
    limit = 2 ** MAX_SPIN_RANK
    if n > MAX_SPIN_RANK:
        # columns that each reach a row no earlier one touches are independent
        touched, k = set(), 0
        for c in cols:
            support = {i for i, x in enumerate(c) if x}
            if not support <= touched:
                touched |= support
                k += 1
        _require_spin_images(N, k)
    # the spin of so_0 is the trivial weight, for every half
    flip = 1 if N % 2 == 0 and half != "both" and n else 0
    states = {(tuple(sum(r) // 2 for r in f.numer.entries), 0): 1}
    for c in cols:
        nxt = dict(states)   # a plus sign keeps image and parity
        for (x, p), m in states.items():
            key = (tuple(map(sub, x, c)), p ^ flip)
            nxt[key] = nxt.get(key, 0) + m
        if len(nxt) > limit:
            raise BoundError(f"restricting the spin of so{N} passed 2^{MAX_SPIN_RANK} "
                             f"distinct partial weights")
        states = nxt
    keep = 1 if flip and half == "minus" else 0
    out = WeightMultiset(f.target_rank, tuple(sorted(
        (x, m) for (x, p), m in states.items() if p == keep)))
    if out.dimension != 2 ** (n - flip):
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
    return LatticeMap.from_rows(rows, source_rank=n_big)


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


def verify_spin_branching(c: int, d: int, variant: str = "so") -> BranchReport:
    """Restrict the (half-)spin of so_{cd} along a product of d copies of so_c.

    variant "so" checks the sign-vector decomposition (c even), the
    isotypic multiplicity 2^{d0-1} (c odd, d even), or 2^{d0} (both odd).
    variant "gl" checks the exterior-power decomposition along gl_c^{d/2}.
    Each block embedding has d floor(c/2), or c d / 2 for gl, independent
    columns, and more than ``MAX_SPIN_RANK`` of them raise ``BoundError``
    before any multiset is built.
    """
    if c < 2 or d < 1:
        raise InputError("need c >= 2 and d >= 1")
    N = c * d
    if variant == "gl":
        return _verify_gl_branching(c, d)
    if variant != "so":
        raise InputError(f"unknown variant {variant!r}")

    _require_spin_images(N, d * (c // 2))
    emb = so_block_embedding([c] * d)
    r_c = c // 2
    if c % 2 == 0:
        lhs = _spin_restriction(emb, N, "plus")
        rhs = _even_parity_product(spin_weight_multiset(r_c, "D", "plus"),
                                   spin_weight_multiset(r_c, "D", "minus"), d)
        desc = f"plus-half-spin(so{N}) | so{c}^{d} = even-sign half-spin blocks"
    else:  # c odd: the full spin when d is odd too, the plus half when d is even
        k = (d - 1) // 2
        lhs = _spin_restriction(emb, N, "both" if N % 2 else "plus")
        w_c = spin_weight_multiset(r_c, "B")
        rhs = w_c
        for _ in range(d - 1):
            rhs = rhs.box_tensor(w_c)
        rhs = rhs.scalar_multiple(2 ** k)
        desc = f"{'spin' if N % 2 else 'plus-half-spin'}(so{N}) | so{c}^{d} = 2^{k} (box of spins)"
    return BranchReport(lhs.doubled == rhs.doubled, lhs.dimension, rhs.dimension, desc)


def _even_parity_product(even_block, odd_block, d: int) -> WeightMultiset:
    """Box product of d blocks, summed over the choices with an even number of odd blocks.

    Each block is ``even_block`` or ``odd_block``; the sum runs by parity,
    with even and odd accumulators, in d steps.
    """
    even, odd = even_block, odd_block
    for _ in range(d - 1):
        even, odd = (even.box_tensor(even_block).add(odd.box_tensor(odd_block)),
                     even.box_tensor(odd_block).add(odd.box_tensor(even_block)))
    return even


def _verify_gl_branching(c: int, d: int) -> BranchReport:
    if d % 2:
        raise InputError("the gl variant needs an even number of blocks")
    d0 = d // 2
    n_big = c * d0
    _require_spin_images(2 * n_big, n_big)
    emb = gl_block_embedding(c, d0)
    lhs = _spin_restriction(emb, 2 * n_big, "plus")
    vend = WeightMultiset.from_doubled(
        c, [(tuple(-2 if i == j else 0 for i in range(c)), 1) for j in range(c)])
    # the exterior powers of one block shifted by (1/2, ..., 1/2), summed by
    # the parity of the degree
    layers = vend._exterior_layers(c)
    block_even, block_odd = (
        WeightMultiset.from_doubled(c, [(tuple(a + 1 for a in w), m)
                                        for i in range(parity, c + 1, 2)
                                        for w, m in layers[i].items()])
        for parity in (0, 1))
    rhs = _even_parity_product(block_even, block_odd, d0)
    desc = f"plus-half-spin(so{2 * n_big}) | gl{c}^{d0} = even exterior powers"
    return BranchReport(lhs.doubled == rhs.doubled, lhs.dimension, rhs.dimension, desc)


def verify_spin_factorization(a: int, t: int) -> BranchReport:
    """Full spin of so_{a+t} restricted along so_a x so_t.

    Equals the box product of the full spins, doubled when both a and t
    are odd.  The embedding has floor(a/2) + floor(t/2) independent
    columns, bounded as in ``verify_spin_branching``.
    """
    if a < 2 or t < 2:
        raise InputError("need block sizes >= 2")
    N = a + t
    _require_spin_images(N, a // 2 + t // 2)
    emb = so_block_embedding([a, t])
    lhs = _spin_restriction(emb, N)
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
    """Pull the spin multiset of SO_N back to the symplectic torus.

    The embedding's columns e_1 + e_j, j = 2..g, are the g - 1 independent
    columns _spin_restriction counts, so the bound is checked on that count
    before the embedding is built, after g and half are read.
    """
    (g,) = int_tuple((g,))
    if g < 1:
        raise InputError("g must be >= 1")
    N = comb(2 * g, 2) - 1
    _require_half(N, half)
    _require_spin_images(N, g - 1)
    return _spin_restriction(kuga_satake_embedding(g), N, half)


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


def verify_plethysm(g: int) -> PlethysmReport:
    """Full exterior algebra of wedge^2(standard) against 2^g copies of V (x) V.

    V is the symplectic irreducible with highest weight
    omega_1 + ... + omega_{g-1}; the comparison is a full multiset equality.
    """
    if g < 1:
        raise InputError("g must be >= 1")
    if g > MAX_PLETHYSM_G:
        raise BoundError(f"plethysm bound exceeded: g={g} > {MAX_PLETHYSM_G}")
    std = sp_standard_multiset(g)
    lhs = std.exterior_power(2).full_exterior_algebra()
    lam = tuple(g - 1 - i for i in range(g))
    V = irrep_weight_multiset(sp_datum(g), lam)
    rhs = V.tensor(V).scalar_multiple(2 ** g)
    return PlethysmReport(lhs.doubled == rhs.doubled, lhs.dimension, rhs.dimension, g)
