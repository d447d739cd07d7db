"""Exact integer matrices, Smith normal form, and finitely generated abelian groups.

Everything here runs on arbitrary-precision Python integers.  The Smith
normal form is the engine behind all lattice quotients in the package:
cokernels, Ext groups, congruence solving, and lifting of torus
cocharacters through quotient maps.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, prod


class InputError(ValueError):
    """Malformed or inconsistent user input."""


class BoundError(ValueError):
    """A requested computation exceeds its configured feasibility bound."""


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix stored row-major."""

    rows: int
    cols: int
    entries: tuple

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        rows = [tuple(int(x) for x in r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise InputError("ragged matrix")
        return IntMatrix(len(rows), ncols, tuple(rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def diagonal(diag, rows=None, cols=None) -> "IntMatrix":
        diag = [int(d) for d in diag]
        rows = len(diag) if rows is None else rows
        cols = len(diag) if cols is None else cols
        ent = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(diag):
            ent[i][i] = d
        return IntMatrix.from_rows(ent)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(tuple(self.entries[i][j] for i in range(self.rows))
                               for j in range(self.cols)))

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.cols != other.rows:
                raise InputError("dimension mismatch in matrix product")
            ot = other.transpose().entries
            return IntMatrix(self.rows, other.cols,
                             tuple(tuple(sum(a * b for a, b in zip(r, c)) for c in ot)
                                   for r in self.entries))
        return NotImplemented

    def apply(self, vec):
        """Matrix times column vector, returned as a tuple of ints."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise InputError("dimension mismatch in matrix-vector product")
        return tuple(sum(a * b for a, b in zip(r, vec)) for r in self.entries)

    def det(self) -> int:
        """Exact determinant via fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise InputError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and self.det() in (1, -1)

    def minor_gcd(self, k: int) -> int:
        """gcd of all k x k minors (0 if there are none or all vanish)."""
        g = 0
        for rowset in combinations(range(self.rows), k):
            for colset in combinations(range(self.cols), k):
                sub = IntMatrix.from_rows([[self.entries[i][j] for j in colset] for i in rowset])
                g = gcd(g, sub.det())
                if g == 1:
                    return 1
        return g

    def to_json(self):
        """Nested arrays of decimal integer strings."""
        return [[str(x) for x in r] for r in self.entries]

    @staticmethod
    def from_json(data) -> "IntMatrix":
        try:
            return IntMatrix.from_rows([[int(x) for x in r] for r in data])
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad matrix payload: {exc}") from exc


@dataclass(frozen=True)
class SmithForm:
    """U * A * V = D with U, V unimodular and D diagonal with a divisibility chain."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    invariant_factors: tuple

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def _pivot(m, s, rows, cols):
    """Smallest-absolute-value nonzero entry in the trailing block, ties by (row, col)."""
    best = None
    for i in range(s, rows):
        for j in range(s, cols):
            v = m[i][j]
            if v != 0 and (best is None or abs(v) < abs(m[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form(A: IntMatrix) -> SmithForm:
    """Deterministic Smith normal form over the integers.

    Pivoting always selects the smallest-absolute-value nonzero entry,
    breaking ties by lowest (row, col), so the output is a pure function
    of the input matrix.
    """
    rows, cols = A.rows, A.cols
    m = [list(r) for r in A.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_swap(i, k):
        m[i], m[k] = m[k], m[i]
        u[i], u[k] = u[k], u[i]

    def col_swap(j, k):
        for r in m:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]

    def row_add(i, k, c):
        # row i += c * row k
        m[i] = [a + c * b for a, b in zip(m[i], m[k])]
        u[i] = [a + c * b for a, b in zip(u[i], u[k])]

    def col_add(j, k, c):
        # col j += c * col k
        for r in m:
            r[j] += c * r[k]
        for r in v:
            r[j] += c * r[k]

    def row_negate(i):
        m[i] = [-a for a in m[i]]
        u[i] = [-a for a in u[i]]

    s = 0
    n = min(rows, cols)
    while s < n:
        piv = _pivot(m, s, rows, cols)
        if piv is None:
            break
        row_swap(s, piv[0])
        col_swap(s, piv[1])
        dirty = False
        for i in range(s + 1, rows):
            if m[i][s] != 0:
                q = m[i][s] // m[s][s]
                row_add(i, s, -q)
                if m[i][s] != 0:
                    dirty = True
        for j in range(s + 1, cols):
            if m[s][j] != 0:
                q = m[s][j] // m[s][s]
                col_add(j, s, -q)
                if m[s][j] != 0:
                    dirty = True
        if dirty:
            continue
        # trailing entries not divisible by the pivot get folded into column s
        nondiv = None
        for i in range(s + 1, rows):
            for j in range(s + 1, cols):
                if m[i][j] % m[s][s] != 0:
                    nondiv = i
                    break
            if nondiv is not None:
                break
        if nondiv is not None:
            row_add(s, nondiv, 1)
            continue
        if m[s][s] < 0:
            row_negate(s)
        s += 1

    diag = [m[i][i] for i in range(n) if m[i][i] != 0]
    U = IntMatrix.from_rows(u)
    V = IntMatrix.from_rows(v)
    D = IntMatrix.from_rows(m)
    form = SmithForm(U, D, V, tuple(diag))
    _check_smith(A, form)
    return form


def _check_smith(A, form):
    if (form.U * A * form.V).entries != form.D.entries:
        raise AssertionError("SNF identity U*A*V = D violated")
    if not form.U.is_unimodular() or not form.V.is_unimodular():
        raise AssertionError("SNF transforms not unimodular")
    d = form.invariant_factors
    for a, b in zip(d, d[1:]):
        if a <= 0 or b % a != 0:
            raise AssertionError("SNF divisibility chain violated")


@dataclass(frozen=True)
class FinAbGroup:
    """A finitely generated abelian group in canonical invariant-factor form.

    ``invariant_factors`` is an ascending divisibility chain of integers
    >= 2 (factors equal to 1 are dropped); ``free_rank`` counts the Z
    summands.
    """

    invariant_factors: tuple
    free_rank: int

    def __post_init__(self):
        facs = self.invariant_factors
        if any(d < 2 for d in facs):
            raise InputError("invariant factors must be >= 2")
        for a, b in zip(facs, facs[1:]):
            if b % a != 0:
                raise InputError("invariant factors must form a divisibility chain")
        if self.free_rank < 0:
            raise InputError("negative free rank")

    @staticmethod
    def from_orders(orders, free_rank=0) -> "FinAbGroup":
        """Canonicalize an arbitrary list of cyclic orders (0 means a Z factor)."""
        tors = [int(d) for d in orders if int(d) not in (0, 1)]
        free = free_rank + sum(1 for d in orders if int(d) == 0)
        # repeated gcd/lcm passes sort the orders into a divisibility chain
        changed = True
        while changed:
            changed = False
            for i in range(len(tors)):
                for j in range(i + 1, len(tors)):
                    a, b = tors[i], tors[j]
                    if b % a != 0:
                        g = gcd(a, b)
                        tors[i], tors[j] = g, a * b // g
                        changed = True
            tors = [d for d in tors if d != 1]
        return FinAbGroup(tuple(sorted(tors)), free)

    @staticmethod
    def trivial() -> "FinAbGroup":
        return FinAbGroup((), 0)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors and self.free_rank == 0

    def order(self):
        """Group order; None for infinite groups."""
        if self.free_rank:
            return None
        return prod(self.invariant_factors) if self.invariant_factors else 1

    def torsion_part(self) -> "FinAbGroup":
        return FinAbGroup(self.invariant_factors, 0)

    def two_torsion(self) -> "FinAbGroup":
        """The subgroup of elements of order dividing 2."""
        facs = tuple(2 for d in self.invariant_factors if d % 2 == 0)
        return FinAbGroup(facs, 0)

    def direct_sum(self, other: "FinAbGroup") -> "FinAbGroup":
        return FinAbGroup.from_orders(
            list(self.invariant_factors) + list(other.invariant_factors),
            self.free_rank + other.free_rank)

    def __str__(self):
        parts = [f"Z/{d}" for d in self.invariant_factors] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"


def cokernel_invariants(A: IntMatrix) -> FinAbGroup:
    """Canonical form of Z^rows / (column span of A)."""
    form = smith_normal_form(A)
    tors = tuple(d for d in form.invariant_factors if d > 1)
    return FinAbGroup(tors, A.rows - form.rank)


def ext1_to_Z(G: FinAbGroup) -> FinAbGroup:
    """Ext^1(G, Z): the free part dies and each Z/d contributes Z/d."""
    return G.torsion_part()


def solve_linear(A: IntMatrix, target, form: SmithForm | None = None) -> tuple | None:
    """One integer solution x of A x = target, or None.

    Deterministic: the solution comes straight off the Smith normal form,
    which a caller that already has it for A may pass as ``form``.
    """
    if A.rows == 0:
        return (0,) * A.cols
    if form is None:
        form = smith_normal_form(A)
    c = form.U.apply(target)
    t = [0] * A.cols
    r = form.rank
    for i in range(A.rows):
        if i < r:
            d = form.D[i, i]
            if c[i] % d != 0:
                return None
            t[i] = c[i] // d
        elif c[i] != 0:
            return None
    return form.V.apply(t)


def kernel_basis(A: IntMatrix) -> list:
    """Basis (list of column vectors) of the integer kernel of A."""
    if A.rows == 0:
        return [tuple(1 if i == j else 0 for i in range(A.cols)) for j in range(A.cols)]
    form = smith_normal_form(A)
    return [form.V.col(j) for j in range(form.rank, A.cols)]


def solve_congruence(A: IntMatrix, target, moduli):
    """Solve A x = target with row i read modulo moduli[i] (0 means exact).

    Returns (particular solution, basis of the solution lattice) or None.
    """
    if A.rows == 0:
        return (0,) * A.cols, kernel_basis(A)
    rows, cols = A.rows, A.cols
    mod_cols = [i for i in range(rows) if moduli[i] != 0]
    aug = [list(A.row(i)) + [0] * len(mod_cols) for i in range(rows)]
    for k, i in enumerate(mod_cols):
        aug[i][cols + k] = -moduli[i]
    B = IntMatrix.from_rows(aug)
    part = solve_linear(B, target)
    if part is None:
        return None
    ker = kernel_basis(B)
    return tuple(part[:cols]), [tuple(k[:cols]) for k in ker]


def congruence_kernel_basis(A: IntMatrix, moduli) -> list:
    """Basis of {x : A x = 0 with row i read mod moduli[i]} as a sublattice of Z^cols.

    The raw congruence kernel generators can be linearly dependent as
    vectors of Z^cols; a Smith reduction of their span produces an honest
    basis.
    """
    sol = solve_congruence(A, tuple([0] * A.rows), moduli)
    _, ker = sol
    if not ker:
        return []
    M = IntMatrix.from_rows([list(r) for r in zip(*ker)])  # columns = generators
    form = smith_normal_form(M)
    # U^-1 * D spans the same lattice; its nonzero columns are a basis
    uinv = invert_unimodular(form.U)
    basis = []
    for j in range(form.rank):
        d = form.D[j, j]
        basis.append(tuple(uinv[i, j] * d for i in range(M.rows)))
    return basis


def invert_unimodular(U: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix."""
    n = U.rows
    det = U.det()
    if det not in (1, -1):
        raise InputError("matrix is not unimodular")
    # adjugate via cofactors; sizes here are small
    cof = [[0] * n for _ in range(n)]
    idx = list(range(n))
    for i in range(n):
        for j in range(n):
            sub = IntMatrix.from_rows([[U[r, c] for c in idx if c != j] for r in idx if r != i])
            cof[j][i] = (-1) ** (i + j) * sub.det()
    inv = [[c * det for c in row] for row in cof]  # det is +-1
    return IntMatrix.from_rows(inv)


def torus_lift(quotient: IntMatrix, lam) -> tuple | None:
    """Lift a cocharacter through a quotient of tori.

    ``quotient`` is the matrix of the induced map on cocharacter lattices
    (rows indexed by the target torus, columns by the source), which must
    be surjective after tensoring with Q.  ``lam`` is a cocharacter of the
    target.  Returns a cocharacter of the source composing to ``lam``
    exactly, or None when the class obstruction is nonzero.
    """
    lam = tuple(int(x) for x in lam)
    if len(lam) != quotient.rows:
        raise InputError("cocharacter length does not match quotient target rank")
    form = smith_normal_form(quotient)
    if form.rank < quotient.rows:
        raise InputError("quotient map is not surjective over Q")
    x = solve_linear(quotient, lam, form)
    if x is None:
        return None
    if quotient.apply(x) != lam:
        raise AssertionError("lift does not compose to the input cocharacter")
    return x
