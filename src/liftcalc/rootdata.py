"""Based root data: validation, duality, root systems, centers, central quotients.

Roots and coroots are stored as concrete integer vectors in Z^rank with
the standard dot pairing.  Built-in simple types come in two flavors:
the classical e_i coordinates for Sp and SO, and fundamental-weight /
root-basis coordinates for everything else.  All center and quotient
computations go through Smith normal form; nothing is looked up in a
table.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache, partial
from itertools import combinations

from .intmat import (
    BoundError,
    FinAbGroup,
    InputError,
    IntMatrix,
    cokernel_invariants,
    congruence_kernel_basis,
    congruence_system,
    ext1_to_Z,
    int_tuple,
    invert_unimodular,
    require_lift_size,
    smith_normal_form,
    solve_linear,
)


@dataclass(frozen=True)
class BasedRootDatum:
    """Character lattice Z^rank with simple roots and coroots as vectors.

    A datum is its rank, simple roots and simple coroots and nothing else,
    so data built two ways compare equal and hash alike.  The positive
    system is the one generated by the simple roots in their listed order;
    no separate pinning data is carried.
    """

    rank: int
    simple_roots: tuple
    simple_coroots: tuple

    @staticmethod
    def make(simple_roots, simple_coroots, rank=None) -> "BasedRootDatum":
        roots = tuple(int_tuple(r) for r in simple_roots)
        coroots = tuple(int_tuple(r) for r in simple_coroots)
        if rank is None:
            rank = len(roots[0]) if roots else 0
        return BasedRootDatum(rank, roots, coroots)

    @property
    def semisimple_rank(self) -> int:
        return len(self.simple_roots)

    def pairing(self, chi, cochi) -> int:
        return sum(a * b for a, b in zip(chi, cochi))

    def cartan_matrix(self) -> IntMatrix:
        """C[i][j] = <alpha_i, alpha_j^vee>."""
        return IntMatrix.from_rows(
            [[self.pairing(a, b) for b in self.simple_coroots] for a in self.simple_roots])


def validate(rd: BasedRootDatum) -> str:
    """Check the based-root-datum axioms; return "ok" or name the first failure.

    Finiteness and independence are both read off the Cartan matrix C:
    the minor loop requires every principal minor positive, det C among
    them.  A relation sum c_i alpha_i = 0 among the simple roots would give
    c^T C = 0, and one sum c_j alpha_j^vee = 0 among the simple coroots
    would give C c = 0; either way C would be singular, so data with
    dependent simple roots or coroots fail at a principal minor.
    """
    l = rd.semisimple_rank
    if len(rd.simple_coroots) != l:
        return "number of simple roots and coroots differ"
    for v in rd.simple_roots + rd.simple_coroots:
        if len(v) != rd.rank:
            return "vector length does not match rank"
    for i in range(l):
        p = rd.pairing(rd.simple_roots[i], rd.simple_coroots[i])
        if p != 2:
            return f"pairing != 2 at simple root {i} (got {p})"
    C = rd.cartan_matrix()
    for i in range(l):
        for j in range(l):
            if i == j:
                continue
            if C[i, j] > 0:
                return f"positive off-diagonal Cartan entry at ({i}, {j})"
            if (C[i, j] == 0) != (C[j, i] == 0):
                return f"asymmetric Cartan vanishing at ({i}, {j})"
    # finite type: all principal minors of the Cartan matrix are positive
    for k in range(1, l + 1):
        for sub in combinations(range(l), k):
            M = IntMatrix.from_rows([[C[i, j] for j in sub] for i in sub])
            if M.det() <= 0:
                return f"Cartan principal minor {sub} not positive (not finite type)"
    return "ok"


def _require_valid(rd):
    diag = validate(rd)
    if diag != "ok":
        raise InputError(f"invalid root datum: {diag}")


def dual(rd: BasedRootDatum) -> BasedRootDatum:
    """Swap characters with cocharacters; an involution."""
    return BasedRootDatum(rd.rank, rd.simple_coroots, rd.simple_roots)


def positive_roots(rd: BasedRootDatum) -> tuple:
    """Positive roots enumerated by reflection closure of the simple roots."""
    return _positive_roots(rd)[0]


def positive_coroots(rd: BasedRootDatum) -> tuple:
    """The coroot of each root of ``positive_roots(rd)``, in the same order."""
    return _positive_roots(rd)[1]


@cache
def _positive_roots(rd):
    """(positive roots, their coroots), from one reflection closure of the simple pairs.

    The cache keys on the datum itself, so equal data share one closure.

    s_i sends a root b to b - <b, a_i^vee> a_i and its coroot bv to
    bv - <a_i, bv> a_i^vee, so each root found keeps the coroot it came with.
    Each also keeps its coordinates in the simple roots, of which s_i lowers
    the i-th by <b, a_i^vee>.  validate has checked that the simple roots are
    independent, so these coordinates are unique, and b is positive when
    none of them is negative.
    """
    _require_valid(rd)
    l = rd.semisimple_rank
    simple = tuple(zip(rd.simple_roots, rd.simple_coroots))
    found = {a: (av, tuple(int(i == j) for j in range(l))) for i, (a, av) in enumerate(simple)}
    frontier = list(found.items())
    while frontier:
        nxt = []
        for b, (bv, c) in frontier:
            for i, (a, av) in enumerate(simple):
                p = rd.pairing(b, av)
                img = tuple(x - p * y for x, y in zip(b, a))
                if img not in found:
                    q = rd.pairing(a, bv)
                    found[img] = (tuple(x - q * y for x, y in zip(bv, av)),
                                  c[:i] + (c[i] - p,) + c[i + 1:])
                    nxt.append((img, found[img]))
        frontier = nxt
    pos = sorted(b for b, (_, c) in found.items() if min(c) >= 0)
    return tuple(pos), tuple(found[b][0] for b in pos)


def _simple_root_matrix(rd):
    """The rank x l matrix whose columns are the simple roots."""
    return IntMatrix(rd.rank, rd.semisimple_rank,
                     tuple(tuple(r[i] for r in rd.simple_roots) for i in range(rd.rank)))


def half_sum_positive_roots(rd: BasedRootDatum) -> tuple:
    """rho-hat as a tuple of Fractions."""
    pos = positive_roots(rd)
    return tuple(Fraction(sum(b[i] for b in pos), 2) for i in range(rd.rank))


def longest_element_is_minus_one(rd: BasedRootDatum) -> bool:
    """Does the longest Weyl element act as -1 on the root span?

    Decided by anti-dominantizing a vector v of the root span with pairwise
    distinct coroot pairings (2*rho-hat would not do: w0 negates it in every
    type).  v is held by its pairings p_i = <v, alpha_i^vee>, which start at
    (1, ..., l) and determine v, as C is invertible; the reflection s_i
    sends p to p - p_i C[i].
    """
    _require_valid(rd)
    C = rd.cartan_matrix()
    start = list(range(1, rd.semisimple_rank + 1))
    p = start
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(C.entries):
            pi = p[i]
            if pi > 0:
                p = [x - pi * c for x, c in zip(p, row)]
                changed = True
    return p == [-x for x in start]


@dataclass(frozen=True)
class CenterMap:
    """X(Z_G) = X(T)/Q in canonical coordinates, with the quotient projection.

    ``rows`` holds one row of the Smith transform per canonical generator
    of ``group``, torsion generators first: the class of chi in X(Z_G) is
    rows * chi, coordinate i read mod group.moduli[i] (0 leaves it exact).
    """

    group: FinAbGroup
    rows: IntMatrix

    def reduce(self, coords):
        """Canonical X(Z_G) coordinates, each reduced mod its entry of group.moduli."""
        return tuple(v % d if d else v for v, d in zip(coords, self.group.moduli))

    def class_of(self, chi):
        return self.reduce(self.rows.apply(int_tuple(chi)))


def center_characters(rd: BasedRootDatum) -> CenterMap:
    """Characters of the center, X(T)/(root lattice), read off the Smith form U A V = D
    of the simple roots: the map's rows are the rows of U past those of factor 1."""
    return _center_characters(rd)


@cache
def _center_characters(rd):
    """The checked CenterMap of rd, computed once per datum.

    The cache keys on the datum itself, like _positive_roots, so
    minimal_torus_embed, gm_embed and central_quotient_data share one map.
    An invalid datum raises InputError on every call, as a functools cache
    stores no exception.
    """
    _require_valid(rd)
    form = smith_normal_form(_simple_root_matrix(rd))
    ones = form.invariant_factors.count(1)
    group = FinAbGroup(form.invariant_factors[ones:], rd.rank - form.rank)
    return CenterMap(group, IntMatrix(rd.rank - ones, rd.rank, form.U.entries[ones:]))


# ---------------------------------------------------------------------------
# built-in simple types
#
# A datum is its rank, simple roots and simple coroots, an immutable value,
# so each public builder below hands its arguments to a private functools
# cache and each standard datum is built and validated once per process.  The
# caches are typed, so 2 and 2.0 are separate keys, and simple_type
# upper-cases the family first, so "e" and "E" are one.  A builder that raises
# caches nothing.  The per-datum caches (_positive_roots and the centre,
# _center_characters, here, the Freudenthal tables in weights) key on the datum
# itself, so a datum built by hand with the same vectors shares their entries.


def _unit(n, i, c=1):
    """c e_i in Z^n."""
    return tuple(c if j == i else 0 for j in range(n))


def _chain(n):
    """The chain e_i - e_{i+1}, i < n - 1, in Z^n."""
    return tuple(tuple(1 if j == i else -1 if j == i + 1 else 0 for j in range(n))
                 for i in range(n - 1))


def _chain_cartan(n):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]


def cartan_matrix_of_type(family: str, rank: int):
    family = family.upper()
    n = rank
    if family == "A" and n >= 1:
        return _chain_cartan(n)
    if family == "B" and n >= 2:
        C = _chain_cartan(n)
        C[n - 2][n - 1] = -2
        return C
    if family == "C" and n >= 2:
        C = _chain_cartan(n)
        C[n - 1][n - 2] = -2
        return C
    if family == "D" and n >= 3:
        C = _chain_cartan(n)
        C[n - 2][n - 1] = C[n - 1][n - 2] = 0
        C[n - 3][n - 1] = C[n - 1][n - 3] = -1
        return C
    if family == "E" and n in (6, 7, 8):
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        if n >= 7:
            edges.append((6, 7))
        if n == 8:
            edges.append((7, 8))
        C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for a, b in edges:
            C[a - 1][b - 1] = C[b - 1][a - 1] = -1
        return C
    if family == "F" and n == 4:
        return [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    if family == "G" and n == 2:
        return [[2, -1], [-3, 2]]
    raise InputError(f"invalid simple type {family}{rank}")


def simple_type(family: str, rank: int, isogeny: str) -> BasedRootDatum:
    """Standard based root datum for a simple type.

    Coordinates: C_n simply-connected is Sp_2n in the e_i basis with
    simple roots e_i - e_{i+1} and 2e_n; B_n adjoint is SO_{2n+1} in the
    e_i basis with simple roots e_i - e_{i+1} and e_n.  All other cases
    use the fundamental-weight basis (simply connected: coroots are the
    standard basis) or the root basis (adjoint: roots are the standard
    basis), built from the Cartan matrix.
    """
    return _simple_type(family.upper(), rank, isogeny)


@lru_cache(maxsize=None, typed=True)
def _simple_type(family, rank, isogeny):
    if isogeny not in ("sc", "adjoint"):
        raise InputError(f"unknown isogeny type {isogeny!r}")
    if family == "C" and isogeny == "sc" and rank >= 1:
        return sp_datum(rank)
    if family == "B" and isogeny == "adjoint" and rank >= 1:
        return so_odd_datum(rank)
    if family in ("B", "C") and rank == 1:
        # B1 = C1 = A1
        C = cartan_matrix_of_type("A", 1)
    else:
        C = cartan_matrix_of_type(family, rank)
    n = len(C)
    units = tuple(_unit(n, i) for i in range(n))
    if isogeny == "sc":
        rd = BasedRootDatum(n, tuple(map(tuple, C)), units)
    else:
        rd = BasedRootDatum(n, units, tuple(zip(*C)))
    _require_valid(rd)
    return rd


# Largest semisimple rank datum_by_name builds: validating a datum checks all
# 2^rank principal minors, so each rank doubles the cost.  As fresh processes
# on a 2-vCPU Xeon with Python 3.11, param-lift on A14.sc, C14.sc or GL15
# takes 2.4-3.4 s and dim 1.4-2.0 s; at rank 15 param-lift takes 5.2-5.7 s,
# and at rank 16 dim takes 6.2-8.2 s.
MAX_DATUM_RANK = 14


def sp_datum(g: int) -> BasedRootDatum:
    """Sp_2g in e coordinates: X = Z^g, roots e_i - e_{i+1} and 2e_g."""
    return _sp_datum(g)


@lru_cache(maxsize=None, typed=True)
def _sp_datum(g):
    if g < 1:
        raise InputError("rank must be >= 1")
    steps = _chain(g)
    rd = BasedRootDatum(g, steps + (_unit(g, g - 1, 2),), steps + (_unit(g, g - 1),))
    _require_valid(rd)
    return rd


def so_odd_datum(n: int) -> BasedRootDatum:
    """SO_{2n+1} in e coordinates, the dual of Sp_2n: X = Z^n, roots e_i - e_{i+1} and e_n.

    Its Cartan matrix is the transpose of Sp_2n's, so it is valid as built.
    """
    return _so_odd_datum(n)


@lru_cache(maxsize=None, typed=True)
def _so_odd_datum(n):
    return dual(sp_datum(n))


def gsp_datum(g: int) -> BasedRootDatum:
    """GSp_2g: X = Z e_1 + ... + Z e_g + Z e_0, similitude in the last slot."""
    return _gsp_datum(g)


@lru_cache(maxsize=None, typed=True)
def _gsp_datum(g):
    base = sp_datum(g)
    roots = [tuple(list(r) + [0]) for r in base.simple_roots]
    roots[-1] = tuple([0] * (g - 1) + [2, -1])
    coroots = [tuple(list(r) + [0]) for r in base.simple_coroots]
    rd = BasedRootDatum(g + 1, tuple(roots), tuple(coroots))
    _require_valid(rd)
    return rd


def gl_datum(n: int) -> BasedRootDatum:
    """GL_n: X = Z^n, roots e_i - e_{i+1}, coroots the same."""
    return _gl_datum(n)


@lru_cache(maxsize=None, typed=True)
def _gl_datum(n):
    if n < 1:
        raise InputError(f"GL_n needs n >= 1, got {n}")
    steps = _chain(n)
    rd = BasedRootDatum(n, steps, steps)
    _require_valid(rd)
    return rd


def datum_by_name(name: str) -> BasedRootDatum:
    """Resolve names like "C2.sc", "E7.adjoint", "GSp4", "GL3", "SO5".

    The semisimple rank read off the name is checked against
    MAX_DATUM_RANK before anything is built.
    """
    try:
        if name.startswith("GSp"):
            m = int(name[3:])
            if m % 2:
                raise InputError("GSp rank must be even")
            rank, build = m // 2, partial(gsp_datum, m // 2)
        elif name.startswith("GL"):
            n = int(name[2:])
            rank, build = n - 1, partial(gl_datum, n)
        elif name.startswith("SO"):
            m = int(name[2:])
            if m % 2 == 0:
                raise InputError("use simple_type for even orthogonal data")
            rank, build = (m - 1) // 2, partial(so_odd_datum, (m - 1) // 2)
        else:
            typ, iso = name.split(".")
            family, rank = typ[0], int(typ[1:])
            build = partial(simple_type, family, rank, iso)
    except InputError:
        raise
    except (ValueError, IndexError) as exc:
        raise InputError(f"cannot parse datum name {name!r}") from exc
    if rank > MAX_DATUM_RANK:
        raise BoundError(f"semisimple rank {rank} of {name!r} exceeds the bound {MAX_DATUM_RANK}")
    return build()


# ---------------------------------------------------------------------------
# central quotient data


@dataclass
class CentralQuotientData:
    """Normalized data for an embedding of the center Z_G into a torus.

    The basis of X(Ztilde) is changed so the kernel of the restriction
    X(Ztilde) -> X(Z_G) becomes  sum d_i Z w_i  +  sum Z w'_j, with the
    d_i >= 2 ascending; the remaining directions map onto the free part
    of X(Z_G).  The four cocharacter lattices of the associated exact
    sequence are materialized and its exactness is verified numerically.
    """

    G: BasedRootDatum
    center: CenterMap
    embed: IntMatrix                 # canonical X(Z_G) coordinates of the Ztilde basis
    ztilde_rank: int
    basis_change: IntMatrix          # columns: normalized basis in the original basis
    d: tuple                         # torsion invariant factors (>= 2, ascending)
    trivial_dirs: int                # normalized directions lying entirely in the kernel
    free_dirs: int                   # normalized directions mapping to the free part
    torsion_lifts: tuple             # u_i in X(T) lifting the normalized torsion basis classes
    fiber_basis: IntMatrix           # columns: basis of X(Ttilde) inside X(T) + X(Ztilde)

    @property
    def r(self) -> int:
        return len(self.d)

    @cached_property
    def _class_system(self):
        """The congruence system of embed * basis_change."""
        return congruence_system(self.embed * self.basis_change, self.center.group.moduli)

    def normalized_class(self, chi):
        """Coordinates (k_i mod d_i; free part) of the class of chi in X(Z_G)."""
        x = solve_linear(self._class_system, self.center.class_of(chi))
        if x is None:
            raise AssertionError("normalized coordinate solve failed on a surjective map")
        ks = tuple(x[i] % self.d[i] for i in range(self.r))
        free_coords = tuple(x[self.r + self.trivial_dirs + j]
                            for j in range(self.free_dirs))
        return ks, free_coords

    def theta(self, chi):
        """Torsion obstruction coordinates (k_1 mod d_1, ..., k_r mod d_r)."""
        return self.normalized_class(chi)[0]

    def pair_in_extended_lattice(self, chi, psi) -> bool:
        """Is the pair (chi, psi) a character of Ttilde = (T x Ztilde)/Z_G?

        chi has X(T)+Q coordinates, psi has X(Ztilde)+Q coordinates (in the
        original basis), each an int or a Fraction; membership means both
        are integral and their restrictions to Z_G agree.
        """
        if any(isinstance(x, Fraction) and x.denominator != 1 for x in (*chi, *psi)):
            return False
        return self.center.class_of(chi) == self.center.reduce(self.embed.apply(int_tuple(psi)))


def central_quotient_data(rd: BasedRootDatum, embed: IntMatrix) -> CentralQuotientData:
    """Normalize an embedding of Z_G into a split torus.

    ``embed`` gives, column by column, the canonical X(Z_G) coordinates
    of the restriction of each basis character of the torus, read mod
    ``center.group.moduli``; the map must be surjective.  An empty kernel
    and a finite center take the same path, through empty matrices.  An
    embedding past MAX_LIFT_DIM or MAX_LIFT_BITS raises BoundError before
    any Smith form is taken.
    """
    require_lift_size(embed, "embedding")
    center = center_characters(rd)
    moduli = center.group.moduli
    if embed.rows != len(moduli):
        raise InputError(
            f"embed must have {len(moduli)} rows (canonical generators of the center characters)")
    m = embed.cols
    # surjectivity: together with the relations d_i * gen_i = 0, the columns
    # of embed must span all of X(Z_G); the kernel below factors the same matrix
    if not cokernel_invariants(congruence_system(embed, moduli)).is_trivial:
        raise InputError("embedding of the center is not surjective on character groups")
    kerb = congruence_kernel_basis(embed, moduli)
    k = len(kerb)
    form = smith_normal_form(IntMatrix(k, m, tuple(kerb)).transpose())
    uinv = invert_unimodular(form.U)
    facs = form.invariant_factors
    # reorder the new basis: torsion directions (factor > 1) first ascending,
    # then fully-in-kernel directions (factor 1), then free directions
    tor_order = [i for i, d in enumerate(facs) if d > 1]
    triv_order = [i for i, d in enumerate(facs) if d == 1]
    order = tor_order + triv_order + list(range(k, m))
    basis_change = IntMatrix.from_rows(
        [[uinv[i, j] for j in order] for i in range(m)])
    d = tuple(facs[i] for i in tor_order)
    if FinAbGroup(d, m - k) != center.group:
        raise AssertionError("quotient of X(Ztilde) does not match X(Z_G)")
    # lifts of the normalized torsion basis classes to X(T)
    n = rd.rank
    EN = embed * basis_change
    B = congruence_system(center.rows, moduli)
    torsion_lifts = []
    for i in range(len(d)):
        x = solve_linear(B, EN.col(i))
        if x is None:
            raise AssertionError("restriction X(T) -> X(Z_G) failed to hit a class")
        torsion_lifts.append(x[:n])
    # X(Ttilde) = {(chi, psi) : chi and psi agree on Z_G}
    fiber = congruence_kernel_basis(_pair_restriction(center, embed), moduli)
    cqd = CentralQuotientData(
        G=rd, center=center, embed=embed, ztilde_rank=m,
        basis_change=basis_change, d=d, trivial_dirs=len(triv_order),
        free_dirs=m - k, torsion_lifts=tuple(torsion_lifts),
        fiber_basis=IntMatrix(len(fiber), n + m, tuple(fiber)).transpose())
    _verify_defect_sequence(cqd)
    return cqd


def _pair_restriction(center, embed):
    """The map X(T) + X(Ztilde) -> X(Z_G), (chi, psi) -> class(chi) - embed psi."""
    return IntMatrix(embed.rows, center.rows.cols + embed.cols,
                     tuple(p + tuple(-x for x in e)
                           for p, e in zip(center.rows.entries, embed.entries)))


def _verify_defect_sequence(cqd: CentralQuotientData):
    """Numerically verify exactness of

    0 -> Hom(X(Z_G), Z) -> X_*(T) + X_*(Ztilde) -> X_*(Ttilde) -> Ext^1(X(Z_G), Z) -> 0
    """
    n, m = cqd.G.rank, cqd.ztilde_rank
    pair = _pair_restriction(cqd.center, cqd.embed)
    free = [pair.row(i) for i, d in enumerate(cqd.center.group.moduli) if d == 0]
    f0 = len(free)
    B = cqd.fiber_basis
    # rank bookkeeping: the alternating sum must vanish
    if f0 - (n + m) + B.cols != 0:
        raise AssertionError("defect sequence rank mismatch")
    # delta: a functional on the free part of X(Z_G) pulls back to the pair lattice
    delta = IntMatrix(f0, n + m, tuple(free)).transpose()
    eps = B.transpose()
    if any(any(row) for row in (eps * delta).entries):
        raise AssertionError("defect sequence: composite at the pair lattice nonzero")
    dform = smith_normal_form(delta)
    if dform.rank != f0 or any(d != 1 for d in dform.invariant_factors):
        raise AssertionError("defect sequence: Hom part does not inject with saturated image")
    erank = smith_normal_form(eps).rank
    if erank != n + m - f0:
        raise AssertionError("defect sequence: middle map has wrong rank")
    coker = cokernel_invariants(eps)
    expected = ext1_to_Z(cqd.center.group)
    if coker != expected:
        raise AssertionError(
            f"defect sequence: coker {coker} differs from Ext^1 {expected}")


def minimal_torus_embed(rd: BasedRootDatum) -> IntMatrix:
    """The smallest split torus receiving Z_G: one G_m per canonical generator."""
    size = len(center_characters(rd).group.moduli)
    if size == 0:
        return IntMatrix.zero(0, 1)
    return IntMatrix.identity(size)


def gm_embed(rd: BasedRootDatum) -> IntMatrix:
    """Embed Z_G into a single G_m; only valid when the center is cyclic."""
    if len(center_characters(rd).group.moduli) != 1:
        raise InputError("center characters are not cyclic; a single G_m cannot receive Z_G")
    return IntMatrix.from_rows([[1]])
