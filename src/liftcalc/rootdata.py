"""Based root data: validation, duality, Weyl groups, centers, central quotients.

Roots and coroots are stored as concrete integer vectors in Z^rank with
the standard dot pairing.  Built-in simple types come in two flavors:
the classical e_i coordinates for Sp and SO, and fundamental-weight /
root-basis coordinates for everything else.  All center and quotient
computations go through Smith normal form; nothing is looked up in a
table.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .intmat import (
    FinAbGroup,
    InputError,
    IntMatrix,
    cokernel_invariants,
    congruence_kernel_basis,
    invert_unimodular,
    kernel_basis,
    smith_normal_form,
    solve_congruence,
    solve_linear,
)


@dataclass(frozen=True)
class BasedRootDatum:
    """Character lattice Z^rank with simple roots and coroots as vectors.

    The positive system is the one generated by the simple roots in their
    listed order; no separate pinning data is carried.
    """

    rank: int
    simple_roots: tuple
    simple_coroots: tuple
    name: str = ""

    @staticmethod
    def make(simple_roots, simple_coroots, rank=None, name="") -> "BasedRootDatum":
        roots = tuple(tuple(int(x) for x in r) for r in simple_roots)
        coroots = tuple(tuple(int(x) for x in r) for r in simple_coroots)
        if rank is None:
            rank = len(roots[0]) if roots else 0
        return BasedRootDatum(rank, roots, coroots, name)

    @property
    def semisimple_rank(self) -> int:
        return len(self.simple_roots)

    def pairing(self, chi, cochi) -> int:
        return sum(a * b for a, b in zip(chi, cochi))

    def cartan_matrix(self) -> IntMatrix:
        """C[i][j] = <alpha_i, alpha_j^vee>."""
        return IntMatrix.from_rows(
            [[self.pairing(a, b) for b in self.simple_coroots] for a in self.simple_roots])

    def to_json(self):
        return {
            "rank": self.rank,
            "simple_roots": [list(r) for r in self.simple_roots],
            "simple_coroots": [list(r) for r in self.simple_coroots],
        }

    @staticmethod
    def from_json(data) -> "BasedRootDatum":
        try:
            return BasedRootDatum.make(data["simple_roots"], data["simple_coroots"],
                                       rank=int(data["rank"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad root datum payload: {exc}") from exc


def validate(rd: BasedRootDatum) -> str:
    """Check the based-root-datum axioms; return "ok" or name the first failure."""
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
    if l:
        if smith_normal_form(IntMatrix.from_rows([list(r) for r in zip(*rd.simple_roots)])).rank < l:
            return "simple roots linearly dependent"
        if smith_normal_form(IntMatrix.from_rows([list(r) for r in zip(*rd.simple_coroots)])).rank < l:
            return "simple coroots linearly dependent"
    return "ok"


def _require_valid(rd):
    diag = validate(rd)
    if diag != "ok":
        raise InputError(f"invalid root datum: {diag}")


def dual(rd: BasedRootDatum) -> BasedRootDatum:
    """Swap characters with cocharacters; an involution."""
    name = ""
    if rd.name:
        name = rd.name + ".dual"
    return BasedRootDatum(rd.rank, rd.simple_coroots, rd.simple_roots, name)


def reflection_matrix(rd: BasedRootDatum, root, coroot) -> IntMatrix:
    """The reflection x -> x - <x, coroot> root as a matrix on X."""
    n = rd.rank
    return IntMatrix.from_rows(
        [[(1 if a == b else 0) - root[a] * coroot[b] for b in range(n)] for a in range(n)])


def simple_reflections(rd: BasedRootDatum) -> list:
    return [reflection_matrix(rd, a, av)
            for a, av in zip(rd.simple_roots, rd.simple_coroots)]


_POSROOT_CACHE: dict = {}


def positive_roots(rd: BasedRootDatum) -> tuple:
    """Positive roots enumerated by reflection closure of the simple roots."""
    key = (rd.simple_roots, rd.simple_coroots, rd.rank)
    if key in _POSROOT_CACHE:
        return _POSROOT_CACHE[key]
    _require_valid(rd)
    refl = simple_reflections(rd)
    roots = set(rd.simple_roots)
    frontier = list(rd.simple_roots)
    while frontier:
        nxt = []
        for beta in frontier:
            for s in refl:
                img = s.apply(beta)
                if img not in roots:
                    roots.add(img)
                    nxt.append(img)
        frontier = nxt
    pos = tuple(sorted(b for b in roots if _is_positive(rd, b)))
    _POSROOT_CACHE[key] = pos
    return pos


def _is_positive(rd, beta):
    """Is beta a non-negative rational combination of the simple roots?"""
    coeffs = _root_coordinates(rd, beta)
    return coeffs is not None and all(c >= 0 for c in coeffs)


def _root_coordinates(rd, vec):
    """Exact coordinates of vec in the simple-root basis, or None."""
    cols = rd.simple_roots
    l = len(cols)
    # Gaussian elimination over Q on the augmented system
    m = [[Fraction(cols[j][i]) for j in range(l)] + [Fraction(vec[i])] for i in range(rd.rank)]
    piv = 0
    pivots = []
    for col in range(l):
        r = next((i for i in range(piv, rd.rank) if m[i][col] != 0), None)
        if r is None:
            continue
        m[piv], m[r] = m[r], m[piv]
        m[piv] = [x / m[piv][col] for x in m[piv]]
        for i in range(rd.rank):
            if i != piv and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[piv])]
        pivots.append(col)
        piv += 1
    coeffs = [Fraction(0)] * l
    for i, col in enumerate(pivots):
        coeffs[col] = m[i][l]
    for i in range(piv, rd.rank):
        if m[i][l] != 0:
            return None
    # confirm solution (pivots may not cover all columns)
    for i in range(rd.rank):
        if sum(coeffs[j] * cols[j][i] for j in range(l)) != vec[i]:
            return None
    return coeffs


def in_root_lattice(rd: BasedRootDatum, vec) -> bool:
    coeffs = _root_coordinates(rd, tuple(int(x) for x in vec))
    return coeffs is not None and all(c.denominator == 1 for c in coeffs)


def half_sum_positive_roots(rd: BasedRootDatum) -> tuple:
    """rho-hat as a tuple of Fractions."""
    pos = positive_roots(rd)
    return tuple(Fraction(sum(b[i] for b in pos), 2) for i in range(rd.rank))


@dataclass(frozen=True)
class WeylGroup:
    generators: tuple
    order: int


def weyl_group(rd: BasedRootDatum) -> WeylGroup:
    """Simple reflections as integer matrices plus the group order.

    The order is found by enumerating the orbit of the regular vector
    2*rho-hat, whose stabilizer is trivial.
    """
    _require_valid(rd)
    gens = simple_reflections(rd)
    rho2 = tuple(int(2 * c) for c in half_sum_positive_roots(rd))
    seen = {rho2}
    frontier = [rho2]
    while frontier:
        nxt = []
        for v in frontier:
            for s in gens:
                w = s.apply(v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return WeylGroup(tuple(gens), len(seen))


def _vector_with_pairings(rd: BasedRootDatum, values):
    """A rational vector v with <v, alpha_i^vee> = values[i] for all i."""
    l = rd.semisimple_rank
    m = [[Fraction(rd.simple_coroots[i][j]) for j in range(rd.rank)] + [Fraction(values[i])]
         for i in range(l)]
    piv = 0
    pivots = []
    for col in range(rd.rank):
        r = next((i for i in range(piv, l) if m[i][col] != 0), None)
        if r is None:
            continue
        m[piv], m[r] = m[r], m[piv]
        m[piv] = [x / m[piv][col] for x in m[piv]]
        for i in range(l):
            if i != piv and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[piv])]
        pivots.append(col)
        piv += 1
        if piv == l:
            break
    v = [Fraction(0)] * rd.rank
    for i, col in enumerate(pivots):
        v[col] = m[i][rd.rank]
    return tuple(v)


def longest_element_is_minus_one(rd: BasedRootDatum) -> bool:
    """Does the longest Weyl element act as -1 on the root span?

    Decided by anti-dominantizing a regular vector with pairwise distinct
    coroot pairings (2*rho-hat would not do: w0 negates it in every type).
    """
    _require_valid(rd)
    l = rd.semisimple_rank
    if l == 0:
        return True
    v = _vector_with_pairings(rd, [i + 1 for i in range(l)])
    cur = v
    coroots = rd.simple_coroots
    roots = rd.simple_roots
    changed = True
    while changed:
        changed = False
        for a, av in zip(roots, coroots):
            p = sum(x * y for x, y in zip(cur, av))
            if p > 0:
                cur = tuple(x - p * Fraction(y) for x, y in zip(cur, a))
                changed = True
    return cur == tuple(-x for x in v)


@dataclass(frozen=True)
class CenterMap:
    """X(Z_G) = X(T)/Q in canonical coordinates, with the quotient projection.

    ``tor_rows`` and ``free_rows`` are rows of the Smith transform: the
    class of chi in X(Z_G) is (tor_rows * chi mod moduli, free_rows * chi).
    """

    group: FinAbGroup
    moduli: tuple
    tor_rows: IntMatrix
    free_rows: IntMatrix

    def class_of(self, chi):
        chi = tuple(int(x) for x in chi)
        tor = tuple(v % d for v, d in zip(self.tor_rows.apply(chi), self.moduli))
        free = self.free_rows.apply(chi)
        return tor, free


def center_characters(rd: BasedRootDatum) -> CenterMap:
    """Characters of the center: X(T)/(root lattice), computed by SNF."""
    _require_valid(rd)
    l = rd.semisimple_rank
    if l == 0:
        A = IntMatrix.zero(rd.rank, 1)
    else:
        A = IntMatrix.from_rows([[rd.simple_roots[j][i] for j in range(l)]
                                 for i in range(rd.rank)])
    form = smith_normal_form(A)
    tor_idx = [i for i in range(form.rank) if form.D[i, i] > 1]
    free_idx = list(range(form.rank, rd.rank))
    moduli = tuple(form.D[i, i] for i in tor_idx)
    tor_rows = IntMatrix.from_rows([list(form.U.row(i)) for i in tor_idx]) \
        if tor_idx else IntMatrix.zero(0, rd.rank)
    free_rows = IntMatrix.from_rows([list(form.U.row(i)) for i in free_idx]) \
        if free_idx else IntMatrix.zero(0, rd.rank)
    group = FinAbGroup(moduli, len(free_idx))
    return CenterMap(group, moduli, tor_rows, free_rows)


# ---------------------------------------------------------------------------
# built-in simple types


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
    family = family.upper()
    if isogeny not in ("sc", "adjoint"):
        raise InputError(f"unknown isogeny type {isogeny!r}")
    name = f"{family}{rank}.{isogeny}"
    if family == "C" and isogeny == "sc" and rank >= 1:
        rd = sp_datum(rank)
        return BasedRootDatum(rd.rank, rd.simple_roots, rd.simple_coroots, name)
    if family == "B" and isogeny == "adjoint" and rank >= 1:
        rd = so_odd_datum(rank)
        return BasedRootDatum(rd.rank, rd.simple_roots, rd.simple_coroots, name)
    if family in ("B", "C") and rank == 1:
        # B1 = C1 = A1
        C = cartan_matrix_of_type("A", 1)
    else:
        C = cartan_matrix_of_type(family, rank)
    n = len(C)
    if isogeny == "sc":
        roots = [tuple(C[i]) for i in range(n)]
        coroots = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    else:
        roots = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        coroots = [tuple(C[i][j] for i in range(n)) for j in range(n)]
    rd = BasedRootDatum(n, tuple(roots), tuple(coroots), name)
    _require_valid(rd)
    return rd


def sp_datum(g: int) -> BasedRootDatum:
    """Sp_2g in e coordinates: X = Z^g, roots e_i - e_{i+1} and 2e_g."""
    if g < 1:
        raise InputError("rank must be >= 1")
    roots = []
    coroots = []
    for i in range(g - 1):
        v = [0] * g
        v[i], v[i + 1] = 1, -1
        roots.append(tuple(v))
        coroots.append(tuple(v))
    last = [0] * g
    last[g - 1] = 2
    roots.append(tuple(last))
    lastv = [0] * g
    lastv[g - 1] = 1
    coroots.append(tuple(lastv))
    rd = BasedRootDatum(g, tuple(roots), tuple(coroots), f"C{g}.sc")
    _require_valid(rd)
    return rd


def so_odd_datum(n: int) -> BasedRootDatum:
    """SO_{2n+1} in e coordinates: X = Z^n, roots e_i - e_{i+1} and e_n."""
    if n < 1:
        raise InputError("rank must be >= 1")
    d = sp_datum(n)
    roots = list(d.simple_roots)
    coroots = list(d.simple_coroots)
    roots[-1], coroots[-1] = coroots[-1], roots[-1]
    rd = BasedRootDatum(n, tuple(roots), tuple(coroots), f"B{n}.adjoint")
    _require_valid(rd)
    return rd


def gsp_datum(g: int) -> BasedRootDatum:
    """GSp_2g: X = Z e_1 + ... + Z e_g + Z e_0, similitude in the last slot."""
    base = sp_datum(g)
    roots = [tuple(list(r) + [0]) for r in base.simple_roots]
    roots[-1] = tuple([0] * (g - 1) + [2, -1])
    coroots = [tuple(list(r) + [0]) for r in base.simple_coroots]
    rd = BasedRootDatum(g + 1, tuple(roots), tuple(coroots), f"GSp{2 * g}")
    _require_valid(rd)
    return rd


def gl_datum(n: int) -> BasedRootDatum:
    """GL_n: X = Z^n, roots e_i - e_{i+1}, coroots the same."""
    roots = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        roots.append(tuple(v))
    rd = BasedRootDatum(n, tuple(roots), tuple(roots), f"GL{n}")
    _require_valid(rd)
    return rd


_BUILTIN_EXTRAS = {"GL2": lambda: gl_datum(2), "GL3": lambda: gl_datum(3)}


def datum_by_name(name: str) -> BasedRootDatum:
    """Resolve names like "C2.sc", "E7.adjoint", "GSp4", "GL3", "SO5"."""
    if name in _BUILTIN_EXTRAS:
        return _BUILTIN_EXTRAS[name]()
    if name.startswith("GSp"):
        m = int(name[3:])
        if m % 2:
            raise InputError("GSp rank must be even")
        return gsp_datum(m // 2)
    if name.startswith("GL"):
        return gl_datum(int(name[2:]))
    if name.startswith("SO"):
        m = int(name[2:])
        if m % 2 == 0:
            raise InputError("use simple_type for even orthogonal data")
        return so_odd_datum((m - 1) // 2)
    try:
        typ, iso = name.split(".")
        family, rank = typ[0], int(typ[1:])
    except (ValueError, IndexError) as exc:
        raise InputError(f"cannot parse datum name {name!r}") from exc
    return simple_type(family, rank, iso)


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
    _lambda_cache: tuple | None = field(default=None, repr=False)

    @property
    def r(self) -> int:
        return len(self.d)

    def normalized_class(self, chi):
        """Coordinates (k_i mod d_i; free part) of the class of chi in X(Z_G)."""
        tor, free = self.center.class_of(chi)
        target = list(tor) + list(free)
        mods = list(self.center.moduli) + [0] * len(free)
        EN = self.embed * self.basis_change
        sol = solve_congruence(EN, tuple(target), tuple(mods))
        if sol is None:
            raise AssertionError("normalized coordinate solve failed on a surjective map")
        x = sol[0]
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
        original basis); membership means both are integral and their
        restrictions to Z_G agree.
        """
        chi = tuple(Fraction(x) for x in chi)
        psi = tuple(Fraction(x) for x in psi)
        if any(x.denominator != 1 for x in chi + psi):
            return False
        chi_i = tuple(int(x) for x in chi)
        psi_i = tuple(int(x) for x in psi)
        tor_c, free_c = self.center.class_of(chi_i)
        cls_z = self.embed.apply(psi_i)
        tor_z = tuple(cls_z[i] % m for i, m in enumerate(self.center.moduli))
        free_z = tuple(cls_z[len(self.center.moduli):])
        return tor_c == tor_z and tuple(free_c) == free_z

    @property
    def lambda_lifts(self) -> tuple:
        """Dominant functionals on X(Ttilde) dual to the kernel generators d_i w_i.

        lambda_i is an integer functional with lambda_i(0, d_j w_j) =
        delta_ij and non-negative values on the simple roots of the
        extended group, chosen to minimize the sum of root values (ties
        broken lexicographically) within a bounded lattice search.
        """
        if self._lambda_cache is None:
            self._lambda_cache = self._compute_lambda_lifts()
        return self._lambda_cache

    def _compute_lambda_lifts(self):
        n = self.G.rank
        m = self.ztilde_rank
        B = self.fiber_basis
        kdim = B.cols
        # coordinates in the fiber basis of the kernel generators (0, d_i w_i)
        tvecs = []
        for i in range(self.r):
            w = self.basis_change.col(i)
            vec = tuple([0] * n) + tuple(self.d[i] * x for x in w)
            t = solve_linear(B, vec)
            if t is None:
                raise AssertionError("kernel generator not in the fiber lattice")
            tvecs.append(t)
        # coordinates of the simple roots (alpha_j, 0)
        rvecs = []
        for a in self.G.simple_roots:
            vec = tuple(a) + tuple([0] * m)
            t = solve_linear(B, vec)
            if t is None:
                raise AssertionError("root not in the fiber lattice")
            rvecs.append(t)
        # matrices of the Weyl reflections acting on fiber-basis coordinates
        refl_mats = []
        for s in simple_reflections(self.G):
            cols = []
            for j in range(kdim):
                v = B.col(j)
                img = tuple(s.apply(v[:n])) + tuple(v[n:])
                t = solve_linear(B, img)
                if t is None:
                    raise AssertionError("fiber lattice not Weyl stable")
                cols.append(t)
            refl_mats.append(IntMatrix.from_rows([list(r) for r in zip(*cols)]))
        lams = []
        for i in range(self.r):
            M = IntMatrix.from_rows([list(t) for t in tvecs])
            target = tuple(1 if j == i else 0 for j in range(self.r))
            lam0 = solve_linear(M, target)
            if lam0 is None:
                raise AssertionError("no functional dual to the kernel generators")
            ker = kernel_basis(M)
            lam = self._dominantize(lam0, ker, rvecs, refl_mats)
            lams.append(tuple(lam))
        # the lambda_i hit a generating set of Ext^1, making the connecting
        # map of the exact sequence surjective
        return tuple(lams)

    def _dominantize(self, lam0, ker, rvecs, refl_mats):
        def vals(lam):
            return tuple(sum(a * b for a, b in zip(lam, rv)) for rv in rvecs)

        def feasible(lam):
            return all(v >= 0 for v in vals(lam))

        # Weyl dominantization: reflect while some root value is negative;
        # the constraints live on central elements, which the reflections fix
        lam = list(lam0)
        while True:
            vs = vals(lam)
            neg = [j for j, v in enumerate(vs) if v < 0]
            if not neg:
                break
            A = refl_mats[neg[0]]
            lam = [sum(lam[a] * A[a, b] for a in range(len(lam))) for b in range(len(lam))]
        # bounded search for the minimal dominant representative
        best = (sum(vals(lam)), vals(lam), tuple(lam))
        radius = 2 if len(ker) <= 6 else 1
        offsets = [()]
        for _ in ker:
            offsets = [o + (c,) for o in offsets for c in range(-radius, radius + 1)]
        for off in offsets:
            cand = list(lam)
            for c, k in zip(off, ker):
                cand = [a + c * b for a, b in zip(cand, k)]
            if feasible(cand):
                key = (sum(vals(cand)), vals(cand), tuple(cand))
                if key < best:
                    best = key
        return best[2]


def central_quotient_data(rd: BasedRootDatum, embed: IntMatrix) -> CentralQuotientData:
    """Normalize an embedding of Z_G into a split torus.

    ``embed`` gives, column by column, the canonical X(Z_G) coordinates
    (torsion generators first, then free generators) of the restriction
    of each basis character of the torus.  The map must be surjective.
    """
    _require_valid(rd)
    center = center_characters(rd)
    r0 = len(center.moduli)
    f0 = center.group.free_rank
    if embed.rows != r0 + f0:
        raise InputError(
            f"embed must have {r0 + f0} rows (canonical generators of the center characters)")
    m = embed.cols
    # surjectivity: together with the relations d_i * gen_i = 0, the columns
    # of embed must span all of Z^(r0+f0)
    if r0 + f0 > 0:
        aug = [list(embed.row(i)) + [center.moduli[i] if j == i else 0 for j in range(r0)]
               for i in range(r0 + f0)]
        if not cokernel_invariants(IntMatrix.from_rows(aug)).is_trivial:
            raise InputError("embedding of the center is not surjective on character groups")
    moduli = tuple(center.moduli) + (0,) * f0
    kerb = congruence_kernel_basis(embed, moduli)
    k = len(kerb)
    if k:
        M = IntMatrix.from_rows([list(row) for row in zip(*kerb)])
        form = smith_normal_form(M)
        uinv = invert_unimodular(form.U)
        facs = list(form.invariant_factors)
    else:
        uinv = IntMatrix.identity(m)
        facs = []
    # reorder the new basis: torsion directions (factor > 1) first ascending,
    # then fully-in-kernel directions (factor 1), then free directions
    tor_order = [i for i, d in enumerate(facs) if d > 1]
    triv_order = [i for i, d in enumerate(facs) if d == 1]
    free_order = list(range(k, m))
    order = tor_order + triv_order + free_order
    basis_change = IntMatrix.from_rows(
        [[uinv[i, j] for j in order] for i in range(m)])
    d = tuple(facs[i] for i in tor_order)
    group_from_quotient = FinAbGroup(d, m - k)
    if group_from_quotient != center.group:
        raise AssertionError("quotient of X(Ztilde) does not match X(Z_G)")
    # lifts of the normalized torsion basis classes to X(T)
    torsion_lifts = []
    EN = embed * basis_change
    for i in range(len(d)):
        cls = EN.col(i)
        target = tuple(cls)
        rows = [list(center.tor_rows.row(t)) for t in range(r0)] + \
               [list(center.free_rows.row(t)) for t in range(f0)]
        A = IntMatrix.from_rows(rows) if rows else IntMatrix.zero(0, rd.rank)
        sol = solve_congruence(A, target, moduli)
        if sol is None:
            raise AssertionError("restriction X(T) -> X(Z_G) failed to hit a class")
        torsion_lifts.append(sol[0])
    # X(Ttilde) = {(chi, psi) : chi and psi agree on Z_G}
    n = rd.rank
    pi_rows = []
    for t in range(r0):
        pi_rows.append(list(center.tor_rows.row(t)) + [-x for x in embed.row(t)])
    for t in range(f0):
        pi_rows.append(list(center.free_rows.row(t)) + [-x for x in embed.row(r0 + t)])
    Pi = IntMatrix.from_rows(pi_rows) if pi_rows else IntMatrix.zero(0, n + m)
    fiber = congruence_kernel_basis(Pi, moduli) if pi_rows else \
        [tuple(1 if i == j else 0 for i in range(n + m)) for j in range(n + m)]
    fiber_basis = IntMatrix.from_rows([list(row) for row in zip(*fiber)])
    cqd = CentralQuotientData(
        G=rd, center=center, embed=embed, ztilde_rank=m,
        basis_change=basis_change, d=d, trivial_dirs=len(triv_order),
        free_dirs=m - k, torsion_lifts=tuple(tuple(u) for u in torsion_lifts),
        fiber_basis=fiber_basis)
    _verify_defect_sequence(cqd)
    return cqd


def _verify_defect_sequence(cqd: CentralQuotientData):
    """Numerically verify exactness of

    0 -> Hom(X(Z_G), Z) -> X_*(T) + X_*(Ztilde) -> X_*(Ttilde) -> Ext^1(X(Z_G), Z) -> 0
    """
    rd = cqd.G
    n, m = rd.rank, cqd.ztilde_rank
    f0 = cqd.center.group.free_rank
    r0 = len(cqd.center.moduli)
    B = cqd.fiber_basis
    kdim = B.cols
    # rank bookkeeping: the alternating sum must vanish
    if f0 - (n + m) + kdim - 0 != 0:
        raise AssertionError("defect sequence rank mismatch")
    # delta: a functional on the free part of X(Z_G) pulls back to the pair lattice
    delta_cols = []
    for t in range(f0):
        row = list(cqd.center.free_rows.row(t)) + [-x for x in cqd.embed.row(r0 + t)]
        delta_cols.append(row)
    eps = B.transpose()
    if delta_cols:
        delta = IntMatrix.from_rows([list(c) for c in zip(*delta_cols)])
        comp = eps * delta
        if any(any(x != 0 for x in row) for row in comp.entries):
            raise AssertionError("defect sequence: composite at the pair lattice nonzero")
        dform = smith_normal_form(delta)
        if dform.rank != f0 or any(d != 1 for d in dform.invariant_factors):
            raise AssertionError("defect sequence: Hom part does not inject with saturated image")
    erank = smith_normal_form(eps).rank
    if erank != n + m - f0:
        raise AssertionError("defect sequence: middle map has wrong rank")
    coker = cokernel_invariants(eps)
    expected = ext1_group(cqd)
    if coker != expected:
        raise AssertionError(
            f"defect sequence: coker {coker} differs from Ext^1 {expected}")


def ext1_group(cqd: CentralQuotientData) -> FinAbGroup:
    from .intmat import ext1_to_Z
    return ext1_to_Z(cqd.center.group)


def minimal_torus_embed(rd: BasedRootDatum) -> IntMatrix:
    """The smallest split torus receiving Z_G: one G_m per canonical generator."""
    center = center_characters(rd)
    size = len(center.moduli) + center.group.free_rank
    if size == 0:
        return IntMatrix.zero(0, 1)
    return IntMatrix.identity(size)


def gm_embed(rd: BasedRootDatum) -> IntMatrix:
    """Embed Z_G into a single G_m; only valid when the center is cyclic."""
    center = center_characters(rd)
    size = len(center.moduli) + center.group.free_rank
    if size != 1:
        raise InputError("center characters are not cyclic; a single G_m cannot receive Z_G")
    return IntMatrix.from_rows([[1]])
