"""Exact integer matrices, Smith normal form, and finitely generated abelian groups.

Everything here runs on arbitrary-precision Python integers.  The Smith
normal form is the engine behind all lattice quotients in the package:
cokernels, Ext groups, congruence solving, and lifting of torus
cocharacters through quotient maps.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd
from numbers import Rational
from operator import mul


class InputError(ValueError):
    """Malformed or inconsistent user input."""


class BoundError(ValueError):
    """A requested computation exceeds its configured feasibility bound."""


def int_tuple(values) -> tuple:
    """The entries of values as ints: each must be an int or a rational of
    denominator 1, such as Fraction(4, 2); anything else, 1.5, 1.0, "7" and
    True among them, raises InputError rather than being truncated."""
    out = tuple(values)
    for x in out:
        if type(x) is not int:
            break
    else:
        return out
    for x in out:
        if type(x) is bool or not (isinstance(x, Rational) and x.denominator == 1):
            raise InputError(f"expected an integer, not {x!r}")
    return tuple(int(x) for x in out)


def rational_tuple(values) -> tuple:
    """The entries of values as they are: each must be an int or a rational
    such as a Fraction; anything else, 1.5, 1.0, "7" and True among them,
    raises InputError rather than being read at its binary value or parsed."""
    out = tuple(values)
    for x in out:
        if type(x) is not int and (type(x) is bool or not isinstance(x, Rational)):
            raise InputError(f"expected an int or a Fraction, not {x!r}")
    return out


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix stored row-major."""

    rows: int
    cols: int
    entries: tuple

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        rows = [int_tuple(r) for r in rows]
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
            return IntMatrix(self.rows, other.cols, _product(self.entries, other))
        return NotImplemented

    def apply(self, vec):
        """Matrix times column vector, returned as a tuple of ints."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise InputError("dimension mismatch in matrix-vector product")
        return tuple(sum(map(mul, r, vec)) for r in self.entries)

    def det(self) -> int:
        """Exact determinant via fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise InputError("determinant of non-square matrix")
        return _det([list(r) for r in self.entries])

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and self.det() in (1, -1)

    def minor_gcd(self, k: int) -> int:
        """gcd of all k x k minors (0 if there are none or all vanish)."""
        g = 0
        for rowset in combinations(self.entries, k):
            for colset in combinations(range(self.cols), k):
                g = gcd(g, _det([[r[j] for j in colset] for r in rowset]))
                if g == 1:
                    return 1
        return g


def _product(rows, B) -> tuple:
    """Rows of the product of the row tuples rows with the IntMatrix B."""
    cols = tuple(zip(*B.entries)) or ((),) * B.cols
    return tuple(tuple(sum(map(mul, r, c)) for c in cols) for r in rows)


def _det(m) -> int:
    """Exact determinant of the square matrix whose rows are the lists m,
    which it overwrites, via fraction-free Bareiss elimination."""
    n = len(m)
    sign = prev = 1
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
    return sign * m[n - 1][n - 1] if n else 1


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
    """(|v|, row, col) of the least nonzero |v| in the trailing block, ties by (row, col)."""
    return min(((abs(v), i, j) for i in range(s, rows)
                for j, v in enumerate(m[i][s:cols], s) if v), default=None)


def smith_normal_form(A: IntMatrix) -> SmithForm:
    """Deterministic Smith normal form over the integers.

    Pivoting always selects the smallest-absolute-value nonzero entry,
    breaking ties by lowest (row, col), so the output is a pure function
    of the input matrix.  That makes it safe to factor each matrix once:
    the forms of the last 32 distinct matrices are kept and shared, as
    ``IntMatrix`` and ``SmithForm`` are immutable.
    """
    return _smith_form(A)


@lru_cache(maxsize=32)
def _smith_form(A: IntMatrix) -> SmithForm:
    """Factor A once and check the form; a cache hit skips both.

    The elimination runs on one list of rows m: the first A.rows rows are
    [A | I_rows] and the last A.cols rows are I_cols.  A row operation on
    the top rows acts on A and U together; a column operation on one of
    the first A.cols columns, applied to every row, acts on A and V
    together.  At the end the top rows are [D | U] and the bottom rows V.
    """
    rows, cols = A.rows, A.cols
    m = [list(r) + [1 if i == k else 0 for k in range(rows)] for i, r in enumerate(A.entries)]
    m += [[1 if i == k else 0 for k in range(cols)] for i in range(cols)]
    s = 0
    n = min(rows, cols)
    while s < n:
        piv = _pivot(m, s, rows, cols)
        if piv is None:
            break
        _, p, c = piv
        m[s], m[p] = m[p], m[s]
        for r in m:
            r[s], r[c] = r[c], r[s]
        dirty = False
        for i in range(s + 1, rows):
            if m[i][s] != 0:
                q = m[i][s] // m[s][s]
                m[i] = [a - q * b for a, b in zip(m[i], m[s])]
                if m[i][s] != 0:
                    dirty = True
        for j in range(s + 1, cols):
            if m[s][j] != 0:
                q = m[s][j] // m[s][s]
                for r in m:
                    r[j] -= q * r[s]
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
            m[s] = [a + b for a, b in zip(m[s], m[nondiv])]
            continue
        if m[s][s] < 0:
            m[s] = [-a for a in m[s]]
        s += 1

    diag = [m[i][i] for i in range(n) if m[i][i] != 0]
    U = IntMatrix(rows, rows, tuple(tuple(r[cols:]) for r in m[:rows]))
    D = IntMatrix(rows, cols, tuple(tuple(r[:cols]) for r in m[:rows]))
    V = IntMatrix(cols, cols, tuple(map(tuple, m[rows:])))
    form = SmithForm(U, D, V, tuple(diag))
    _check_smith(A, form)
    return form


def _check_smith(A, form):
    shapes = ((form.U.rows, form.U.cols), (form.D.rows, form.D.cols), (form.V.rows, form.V.cols))
    if shapes != ((A.rows, A.rows), (A.rows, A.cols), (A.cols, A.cols)):
        raise AssertionError("SNF factors have the wrong shapes")
    if _product(_product(form.U.entries, A), form.V) != form.D.entries:
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

    @property
    def moduli(self) -> tuple:
        """Invariant factors, then a 0 (exact) per Z summand: congruence_system's moduli."""
        return self.invariant_factors + (0,) * self.free_rank

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors and self.free_rank == 0

    def torsion_part(self) -> "FinAbGroup":
        return FinAbGroup(self.invariant_factors, 0)

    def two_torsion(self) -> "FinAbGroup":
        """The subgroup of elements of order dividing 2."""
        facs = tuple(2 for d in self.invariant_factors if d % 2 == 0)
        return FinAbGroup(facs, 0)

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


def solve_linear(A: IntMatrix, target) -> tuple | None:
    """One integer solution x of A x = target, or None.

    With c = U target read off the Smith form U A V = D, there is one
    exactly when c vanishes past the rank and each d_i divides c_i; V is
    unimodular, so x = V (c_1 / d_1, ..., c_r / d_r, 0, ...) is one then.
    """
    form = smith_normal_form(A)
    c = form.U.apply(target)
    d = form.invariant_factors
    if any(c[len(d):]) or any(ci % di for ci, di in zip(c, d)):
        return None
    return form.V.apply([ci // di for ci, di in zip(c, d)] + [0] * (A.cols - len(d)))


def kernel_basis(A: IntMatrix) -> list:
    """Basis (list of column vectors) of the integer kernel of A."""
    form = smith_normal_form(A)
    return [form.V.col(j) for j in range(form.rank, A.cols)]


def congruence_system(A: IntMatrix, moduli) -> IntMatrix:
    """The matrix B = [A | -m e_i] with one column per nonzero m = moduli[i].

    A x = t with row i read mod moduli[i] exactly when B (x, y) = t for some
    integer vector y.
    """
    mod_rows = [i for i in range(A.rows) if moduli[i] != 0]
    aug = [list(A.row(i)) + [0] * len(mod_rows) for i in range(A.rows)]
    for k, i in enumerate(mod_rows):
        aug[i][A.cols + k] = -moduli[i]
    return IntMatrix(A.rows, A.cols + len(mod_rows), tuple(tuple(r) for r in aug))


def solve_congruence(A: IntMatrix, target, moduli):
    """Solve A x = target with row i read modulo moduli[i] (0 means exact).

    Returns (particular solution, basis of the solution lattice) or None.
    """
    B = congruence_system(A, moduli)
    part = solve_linear(B, target)
    if part is None:
        return None
    return tuple(part[:A.cols]), [tuple(k[:A.cols]) for k in kernel_basis(B)]


def congruence_kernel_basis(A: IntMatrix, moduli) -> list:
    """Basis of {x : A x = 0 with row i read mod moduli[i]} as a sublattice of Z^cols.

    The raw congruence kernel generators can be linearly dependent as
    vectors of Z^cols; a Smith reduction of their span produces an honest
    basis.
    """
    _, ker = solve_congruence(A, tuple([0] * A.rows), moduli)
    if not ker:
        return []
    M = IntMatrix.from_rows([list(r) for r in zip(*ker)])  # columns = generators
    form = smith_normal_form(M)
    # M V = U^-1 D spans the same lattice; its nonzero columns are a basis
    return [M.apply(form.V.col(j)) for j in range(form.rank)]


def invert_unimodular(U: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix.

    On the Smith form U' U V = D of a unimodular U, D is the identity, so
    the solutions of U x = e_j are the columns of V U'.
    """
    form = smith_normal_form(U)
    if U.rows != U.cols or form.invariant_factors != (1,) * U.rows:
        raise InputError("matrix is not unimodular")
    return form.V * form.U


# Largest lattice map torus_lift or central_quotient_data factors: at most
# MAX_LIFT_DIM rows and columns, and entries of at most MAX_LIFT_BITS bits.
# The Smith transforms grow with both, and _check_smith multiplies them and
# takes their determinants.  As fresh processes on a 2-vCPU Xeon with
# Python 3.11, torus-lift on seeded 24x24 quotients with 16-bit entries
# takes at most 0.8 s; 32x34 with 16-bit entries takes over 4 s, 10x12 with
# 256-bit entries over 10 s, and with entries in [-9, 9] 58x60 takes 6.2 s
# and one of eleven 45x47 quotients runs past 120 s.
MAX_LIFT_DIM = 24
MAX_LIFT_BITS = 16


def require_lift_size(A: IntMatrix, what: str):
    """BoundError when A has more than MAX_LIFT_DIM rows or columns or an
    entry of more than MAX_LIFT_BITS bits; what names A in the message."""
    if max(A.rows, A.cols) > MAX_LIFT_DIM:
        raise BoundError(f"a {A.rows}x{A.cols} {what} exceeds the bound "
                         f"of {MAX_LIFT_DIM} rows and columns")
    if any(x.bit_length() > MAX_LIFT_BITS for row in A.entries for x in row):
        raise BoundError(f"a {what} entry exceeds the bound of {MAX_LIFT_BITS} bits")


def torus_lift(quotient: IntMatrix, lam) -> tuple | None:
    """Lift a cocharacter through a quotient of tori.

    ``quotient`` is the matrix of the induced map on cocharacter lattices
    (rows indexed by the target torus, columns by the source), which must
    be surjective after tensoring with Q.  ``lam`` is a cocharacter of the
    target.  Returns a cocharacter of the source composing to ``lam``
    exactly, or None when the class obstruction is nonzero.  A quotient
    past MAX_LIFT_DIM or MAX_LIFT_BITS raises BoundError before it is
    factored.
    """
    require_lift_size(quotient, "quotient")
    lam = int_tuple(lam)
    if len(lam) != quotient.rows:
        raise InputError("cocharacter length does not match quotient target rank")
    if smith_normal_form(quotient).rank < quotient.rows:
        raise InputError("quotient map is not surjective over Q")
    x = solve_linear(quotient, lam)
    if x is None:
        return None
    if quotient.apply(x) != lam:
        raise AssertionError("lift does not compose to the input cocharacter")
    return x
