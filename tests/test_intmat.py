import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from math import gcd, prod

import pytest
from test_golden_lattice import SOLVER_DIGEST, _digest, solver_lines

from liftcalc import intmat
from liftcalc.cmdata import (
    CharWitness,
    CMEmbeddingData,
    HeckeFeasibility,
    galois_char_feasible,
    hecke_extension_feasible,
)
from liftcalc.intmat import (
    MAX_LIFT_BITS,
    MAX_LIFT_DIM,
    BoundError,
    FinAbGroup,
    InputError,
    IntMatrix,
    SmithForm,
    cokernel_invariants,
    ext1_to_Z,
    int_tuple,
    invert_unimodular,
    kernel_basis,
    rational_tuple,
    smith_normal_form,
    solve_congruence,
    solve_linear,
    torus_lift,
)
from liftcalc.heisenberg import HeisenbergGroup, MonomialRep, heisenberg_group, rep_rho
from liftcalc.lifting import HodgeFamily, ParameterPair, lift_archimedean_parameter, twist_by_witness
from liftcalc.qforms import (
    QForm,
    QFormInvariants,
    hilbert_symbol,
    invariants,
    quaternion_places,
    squarefree_class,
)
from liftcalc.rootdata import central_quotient_data, datum_by_name, minimal_torus_embed
from liftcalc.weights import LatticeMap, WeightMultiset, kuga_satake_spin_pullback, weyl_dimension


def from_orders(orders, free_rank=0):
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


def order(G):
    """Group order; None for infinite groups."""
    return None if G.free_rank else prod(G.invariant_factors)


def brute_2x2_invariants(a, b, c, d):
    """Oracle: invariant factors of [[a,b],[c,d]] from gcds of minors."""
    g1 = gcd(gcd(a, b), gcd(c, d))
    det = abs(a * d - b * c)
    if g1 == 0:
        return ()
    if det == 0:
        return (g1,)
    return (g1, det // g1)


def test_snf_2x2_example():
    A = IntMatrix.from_rows([[2, 4], [6, 8]])
    form = smith_normal_form(A)
    assert form.invariant_factors == brute_2x2_invariants(2, 4, 6, 8) == (2, 4)


def test_snf_identity():
    A = IntMatrix.identity(3)
    form = smith_normal_form(A)
    assert form.invariant_factors == (1, 1, 1)
    assert form.D.entries == IntMatrix.identity(3).entries


def test_snf_zero():
    A = IntMatrix.zero(2, 2)
    form = smith_normal_form(A)
    assert form.invariant_factors == ()
    assert form.D.entries == A.entries


def test_snf_deterministic():
    A = IntMatrix.from_rows([[3, 1, -4], [2, -7, 5]])
    f1 = smith_normal_form(A)
    f2 = smith_normal_form(A)
    assert f1 == f2


@pytest.mark.parametrize("seed", range(25))
def test_snf_random_properties(seed):
    rng = random.Random(seed)
    rows = rng.randint(1, 6)
    cols = rng.randint(1, 6)
    A = IntMatrix.from_rows(
        [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)])
    form = smith_normal_form(A)
    assert (form.U * A * form.V).entries == form.D.entries
    assert form.U.is_unimodular() and form.V.is_unimodular()
    d = form.invariant_factors
    assert all(b % a == 0 for a, b in zip(d, d[1:]))
    # gcd-of-minors characterization of the invariant factors
    acc = 1
    for k in range(1, min(rows, cols) + 1):
        g = A.minor_gcd(k)
        if k <= len(d):
            assert g == acc * d[k - 1]
            acc = g
        else:
            assert g == 0


def test_cokernel_examples():
    assert cokernel_invariants(IntMatrix.from_rows([[6]])) == FinAbGroup((6,), 0)
    A = IntMatrix.from_rows([[2, 0], [0, 4], [0, 0]])
    assert cokernel_invariants(A) == FinAbGroup((2, 4), 1)
    assert cokernel_invariants(IntMatrix.identity(2)).is_trivial


def test_cokernel_small_box_oracle():
    # Enumerate Z^3 / image(diag(2,4) in Z^3) on a small box: 8 torsion classes
    # per free coordinate slice.
    A = IntMatrix.from_rows([[2, 0], [0, 4], [0, 0]])
    G = cokernel_invariants(A)
    reps = set()
    for x in range(8):
        for y in range(8):
            reps.add((x % 2, y % 4))
    assert len(reps) == 8
    assert order(G) is None and order(G.torsion_part()) == 8


@pytest.mark.parametrize("seed", range(10))
def test_cokernel_isomorphism_invariance(seed):
    rng = random.Random(100 + seed)
    A = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
    G = cokernel_invariants(A)
    # random unimodular transforms on either side keep the cokernel
    L = random_unimodular(3, rng)
    R = random_unimodular(3, rng)
    assert cokernel_invariants(L * A * R) == G
    # permutations are a special case
    perm = list(range(3))
    rng.shuffle(perm)
    P = IntMatrix.from_rows([[1 if j == perm[i] else 0 for j in range(3)] for i in range(3)])
    assert cokernel_invariants(P * A) == G


def random_unimodular(n, rng):
    M = IntMatrix.identity(n)
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        ent = [list(r) for r in M.entries]
        ent[i] = [a + c * b for a, b in zip(ent[i], ent[j])]
        M = IntMatrix.from_rows(ent)
    assert M.is_unimodular()
    return M


def test_ext1():
    assert ext1_to_Z(FinAbGroup((6,), 0)) == FinAbGroup((6,), 0)
    assert ext1_to_Z(FinAbGroup((2,), 1)) == FinAbGroup((2,), 0)
    assert ext1_to_Z(FinAbGroup((), 0)).is_trivial


def test_finabgroup_canonicalization():
    assert from_orders([2, 3]) == FinAbGroup((6,), 0)
    assert from_orders([12, 60]) == FinAbGroup((12, 60), 0)
    assert from_orders([4, 6]) == FinAbGroup((2, 12), 0)
    assert from_orders([0, 2], free_rank=1) == FinAbGroup((2,), 2)
    assert FinAbGroup((2, 4), 0).two_torsion() == FinAbGroup((2, 2), 0)
    assert FinAbGroup((3,), 0).two_torsion().is_trivial


def test_finabgroup_moduli():
    # invariant factors, then one 0 (exact) per Z summand: congruence_system's convention
    assert FinAbGroup((2, 4), 1).moduli == (2, 4, 0)
    assert FinAbGroup((), 0).moduli == ()


def test_torus_lift_gcd_criterion_exhaustive():
    # z -> z^n lifts through (w, z) -> w^r z^s exactly when gcd(r, s) | n
    for r in range(-10, 11):
        for s in range(-10, 11):
            if r == 0 and s == 0:
                continue
            Q = IntMatrix.from_rows([[r, s]])
            for n in range(-10, 11):
                got = torus_lift(Q, (n,))
                expected = n % gcd(r, s) == 0
                assert (got is not None) == expected
                if got is not None:
                    assert Q.apply(got) == (n,)


def test_torus_lift_examples():
    assert torus_lift(IntMatrix.from_rows([[2, 4]]), (3,)) is None
    w = torus_lift(IntMatrix.from_rows([[2, 3]]), (1,))
    assert w is not None and 2 * w[0] + 3 * w[1] == 1
    assert torus_lift(IntMatrix.from_rows([[2, 3]]), (0,)) == (0, 0)


def test_torus_lift_bounds_its_quotient():
    top = 2 ** MAX_LIFT_BITS - 1
    row = [top, -top] + [0] * (MAX_LIFT_DIM - 3) + [1]
    Q = IntMatrix.from_rows([row])
    assert Q.apply(torus_lift(Q, (5,))) == (5,)
    for rows in ([row + [0]], [[1, 0]] * (MAX_LIFT_DIM + 1), [[top + 1, 1]], [[1, -top - 1]]):
        with pytest.raises(BoundError):
            torus_lift(IntMatrix.from_rows(rows), (5,) * len(rows))


def test_torus_lift_rejects_non_surjective():
    with pytest.raises(InputError):
        torus_lift(IntMatrix.from_rows([[0, 0]]), (1,))
    with pytest.raises(InputError):
        torus_lift(IntMatrix.from_rows([[1, 0], [2, 0]]), (1, 1))


def test_solve_linear_and_kernel():
    A = IntMatrix.from_rows([[2, 4], [6, 8]])
    x = solve_linear(A, (2, 6))
    assert x is not None and A.apply(x) == (2, 6)
    assert solve_linear(A, (1, 0)) is None
    K = kernel_basis(IntMatrix.from_rows([[1, 2, 3]]))
    assert len(K) == 2
    for k in K:
        assert k[0] + 2 * k[1] + 3 * k[2] == 0


def test_solve_congruence():
    # x + 2y = 1 mod 3, x - y = 2 exactly
    A = IntMatrix.from_rows([[1, 2], [1, -1]])
    sol = solve_congruence(A, (2, 2), (3, 0))
    assert sol is not None
    x0, ker = sol
    assert (x0[0] + 2 * x0[1]) % 3 == 2 and x0[0] - x0[1] == 2
    assert ker
    for k in ker:
        assert (k[0] + 2 * k[1]) % 3 == 0 and k[0] == k[1]
    # unsatisfiable parity system
    B = IntMatrix.from_rows([[1, 1], [1, -1]])
    assert solve_congruence(B, (1, 0), (2, 0)) is None


def invert_by_cofactors(U):
    """Oracle: the adjugate of a unimodular U divided by det(U) = +-1."""
    n = U.rows
    det = U.det()
    if det not in (1, -1):
        raise InputError("matrix is not unimodular")
    cof = [[0] * n for _ in range(n)]
    idx = list(range(n))
    for i in range(n):
        for j in range(n):
            sub = IntMatrix.from_rows([[U[r, c] for c in idx if c != j] for r in idx if r != i])
            cof[j][i] = (-1) ** (i + j) * sub.det()
    return IntMatrix.from_rows([[c * det for c in row] for row in cof])


def test_invert_unimodular():
    U = IntMatrix.from_rows([[1, 2], [0, 1]])
    assert (U * invert_unimodular(U)).entries == IntMatrix.identity(2).entries
    assert invert_unimodular(IntMatrix.from_rows([[-1]])) == IntMatrix.from_rows([[-1]])
    rng = random.Random(4422)
    for _ in range(60):
        n = rng.randint(2, 6)
        U = random_unimodular(n, rng) * random_unimodular(n, rng)
        assert invert_unimodular(U) == invert_by_cofactors(U)
    for bad in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[1, 0, 0]]):
        with pytest.raises(InputError):
            invert_unimodular(IntMatrix.from_rows(bad))


def test_solver_digest_with_cold_and_warm_cache():
    intmat._smith_form.cache_clear()
    assert _digest(solver_lines()) == SOLVER_DIGEST
    assert intmat._smith_form.cache_info().hits > 0
    assert _digest(solver_lines()) == SOLVER_DIGEST


def test_equal_matrices_share_one_factorization():
    intmat._smith_form.cache_clear()
    A = IntMatrix.from_rows([[3, 1, -4], [2, -7, 5]])
    B = IntMatrix.from_rows([[3, 1, -4], [2, -7, 5]])
    assert A is not B
    assert smith_normal_form(B) is smith_normal_form(A)
    info = intmat._smith_form.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_check_smith_runs_once_per_miss(monkeypatch):
    checked = []
    real = intmat._check_smith

    def counting(A, form):
        checked.append(A)
        real(A, form)

    monkeypatch.setattr(intmat, "_check_smith", counting)
    intmat._smith_form.cache_clear()
    rng = random.Random(8128)
    mats = [IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(3)] for _ in range(2)])
            for _ in range(10)]
    for _ in range(3):
        for A in mats:
            smith_normal_form(A)
    misses = intmat._smith_form.cache_info().misses
    assert len(checked) == misses == len(set(mats))


def test_torus_lift_factors_its_quotient_once():
    # the surjectivity check and the solve both read the cached form
    intmat._smith_form.cache_clear()
    Q = IntMatrix.from_rows([[4, 6, 9], [2, -3, 5]])
    x = torus_lift(Q, (7, -1))
    assert x is not None and Q.apply(x) == (7, -1)
    assert intmat._smith_form.cache_info().misses == 1


def test_smith_cache_is_bounded():
    assert intmat._smith_form.cache_info().maxsize == 32


def test_product_and_apply_match_naive_loops():
    rng = random.Random(6724)
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1)]
    shapes += [tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(60)]
    for n, k, m in shapes:
        A = IntMatrix(n, k, tuple(tuple(rng.randint(-9, 9) for _ in range(k)) for _ in range(n)))
        B = IntMatrix(k, m, tuple(tuple(rng.randint(-9, 9) for _ in range(m)) for _ in range(k)))
        P = A * B
        assert (P.rows, P.cols) == (n, m)
        assert P.entries == tuple(tuple(sum(A[i, t] * B[t, j] for t in range(k)) for j in range(m))
                                  for i in range(n))
        for x in ([rng.randint(-9, 9) for _ in range(k)],
                  [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k)]):
            assert A.apply(x) == tuple(sum(A[i, t] * x[t] for t in range(k)) for i in range(n))


def leibniz_det(rows):
    """Oracle: the sum over permutations, each signed by its inversions."""
    n = len(rows)
    return sum((-1) ** sum(p[i] > p[j] for i, j in combinations(range(n), 2))
               * prod(rows[i][p[i]] for i in range(n)) for p in permutations(range(n)))


def test_det_matches_the_leibniz_sum():
    # a zero pivot at the start or after a step swaps rows, or ends with 0
    # when no row below can; singular matrices repeat a row sum
    mats = [IntMatrix.identity(0), IntMatrix.from_rows([[0, 1], [1, 0]]),
            IntMatrix.from_rows([[1, 1, 0], [1, 1, 1], [0, 1, 1]]),
            IntMatrix.from_rows([[1, 2, 3], [2, 4, 5], [3, 6, 7]]),
            IntMatrix.from_rows([[0, 0], [3, 4]]), IntMatrix.zero(3, 3)]
    rng = random.Random(1968)
    for _ in range(400):
        n = rng.randint(1, 5)
        p0 = rng.choice([0.0, 0.5])
        rows = [[0 if rng.random() < p0 else rng.randint(-9, 9) for _ in range(n)]
                for _ in range(n)]
        if n > 2 and rng.random() < 0.3:
            rows[-1] = [a - b for a, b in zip(rows[0], rows[1])]
        mats.append(IntMatrix.from_rows(rows))
    dets = [M.det() for M in mats]
    assert dets == [leibniz_det(M.entries) for M in mats]
    assert dets[:6] == [1, -1, -1, 0, 0, 0] and dets.count(0) > 100


def test_minor_gcd_matches_naive_enumeration(monkeypatch):
    rng = random.Random(1968)
    for _ in range(120):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        if rng.random() < 0.3:   # rank at most 1, so larger minors vanish
            u, v = rng.choices(range(-4, 5), k=r), rng.choices(range(-4, 5), k=c)
            A = IntMatrix.from_rows([[a * b for b in v] for a in u])
        else:   # a common factor d lifts every gcd to a multiple of d^k
            d = rng.choice([1, 1, 2, 3])
            A = IntMatrix.from_rows([[d * rng.randint(-5, 5) for _ in range(c)]
                                     for _ in range(r)])
        for k in range(min(r, c) + 2):
            minors = [leibniz_det([[A[i, j] for j in cs] for i in rs])
                      for rs in combinations(range(r), k) for cs in combinations(range(c), k)]
            assert A.minor_gcd(k) == reduce(gcd, minors, 0)
    # a minor of 1 ends the scan: the first 1 x 1 minor of [[1, 2], [3, 4]] is 1
    real, calls = intmat._det, []
    monkeypatch.setattr(intmat, "_det", lambda m: calls.append(m) or real(m))
    assert IntMatrix.from_rows([[1, 2], [3, 4]]).minor_gcd(1) == 1 and len(calls) == 1


@pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (0, 0), (2, 5), (5, 2)])
def test_smith_factors_have_true_shapes(rows, cols):
    form = smith_normal_form(IntMatrix.zero(rows, cols))
    assert (form.U.rows, form.U.cols) == (rows, rows)
    assert (form.D.rows, form.D.cols) == (rows, cols)
    assert (form.V.rows, form.V.cols) == (cols, cols)


_ONE, _I2 = IntMatrix.identity(1), IntMatrix.identity(2)
_DIAG32 = IntMatrix.from_rows([[3, 0], [0, 2]])


# (A, U, D, V, invariant factors, message): each form breaks one condition
@pytest.mark.parametrize("A,U,D,V,factors,message", [
    (IntMatrix(0, 3, ()), IntMatrix.identity(0), IntMatrix.from_rows([]), IntMatrix.identity(3),
     (), "wrong shapes"),
    (IntMatrix.from_rows([[2]]), _ONE, IntMatrix.from_rows([[3]]), _ONE, (3,),
     r"U\*A\*V = D violated"),
    (IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[4]]), _ONE,
     (4,), "not unimodular"),
    (_DIAG32, _I2, _DIAG32, _I2, (3, 2), "divisibility chain violated"),
], ids=["shapes", "identity", "unimodular", "chain"])
def test_check_smith_refuses(A, U, D, V, factors, message):
    with pytest.raises(AssertionError, match=message):
        intmat._check_smith(A, SmithForm(U, D, V, factors))


# entries that are not integers, entries that are not exact rationals, and
# two ways to write the integer 2; True is an int to Python but no number here
NOT_INTEGERS = [1.5, 1.0, "7", Fraction(3, 2), True]
NOT_RATIONALS = [1.5, 1.0, "7", True]
TWOS = [2, Fraction(4, 2)]

_CM = CMEmbeddingData.cm_pairs(1)
_C2 = datum_by_name("C2.sc")
_C2_CQD = central_quotient_data(_C2, minimal_torus_embed(_C2))
_REAL = HodgeFamily.make(CMEmbeddingData.totally_real(1), {"v0": (1, 0)})

# every library entry point that reads integers through int_tuple, given the
# entry x, and its answer at x = 2
_INT_READERS = {
    "int_tuple": (lambda x: int_tuple([x, 3]), (2, 3)),
    "from_rows": (lambda x: IntMatrix.from_rows([[x, 3]]), IntMatrix(1, 2, ((2, 3),))),
    "torus_lift": (lambda x: torus_lift(IntMatrix.from_rows([[2, 3]]), (x,)), (-2, 2)),
    "from_doubled_weight": (lambda x: WeightMultiset.from_doubled(1, [((x,), 1)]),
                            WeightMultiset(1, (((2,), 1),))),
    "from_doubled_multiplicity": (lambda x: WeightMultiset.from_doubled(1, [((0,), x)]),
                                  WeightMultiset(1, (((0,), 2),))),
    "galois_class": (lambda x: galois_char_feasible(_CM, 4, {"s0": x, "s0c": 1}),
                     CharWitness(3, {"s0": Fraction(1, 2), "s0c": Fraction(1, 4)})),
    "galois_modulus": (lambda x: galois_char_feasible(_CM, x, {"s0": 1, "s0c": 1}),
                       CharWitness(0, {"s0": Fraction(1, 2), "s0c": Fraction(-1, 2)})),
    "hecke_class": (lambda x: hecke_extension_feasible(_CM, 4, {"s0": x, "s0c": -2}),
                    HeckeFeasibility(True, False)),
    "quaternion_places": (lambda x: quaternion_places(x, 3), (2, 3)),
    "heisenberg_group": (heisenberg_group, HeisenbergGroup(2)),
    "rep_rho_modulus": (lambda x: rep_rho(x, 1), MonomialRep(2, 1)),
    "rep_rho_alpha": (lambda x: rep_rho(5, x), MonomialRep(5, 2)),
    "lattice_map_source_rank": (lambda x: LatticeMap.from_rows([], source_rank=x),
                                LatticeMap(2, 0, IntMatrix(0, 2, ()))),
    "kuga_satake_genus": (kuga_satake_spin_pullback, kuga_satake_spin_pullback(2)),
}

# every library entry point that reads ints and Fractions through
# rational_tuple, given the entry x, and its answer at x = 2
_RATIONAL_READERS = {
    "from_gram": (lambda x: invariants(QForm.from_gram([[x, 0], [0, 3]])),
                  QFormInvariants(2, (2, 0), 6, {"inf": 1, 2: -1, 3: -1})),
    "diagonal_form": (lambda x: invariants(QForm.diagonal_form([x, 3])),
                      QFormInvariants(2, (2, 0), 6, {"inf": 1, 2: -1, 3: -1})),
    "squarefree_class": (squarefree_class, 2),
    "hilbert_symbol": (lambda x: hilbert_symbol(x, 3, 3), -1),
    "weyl_dimension": (lambda x: weyl_dimension(_C2, (x, 0)), 10),
    "lattice_map": (lambda x: LatticeMap.from_rows([[x, 0]]),
                    LatticeMap(2, 1, IntMatrix(1, 2, ((4, 0),)))),
    "parameter_pair": (
        lambda x: lift_archimedean_parameter(
            _C2_CQD, {"v": ParameterPair.make([x, 0], [x, 0])}, "cm_typeA",
            tempered=False).to_json()["lifted"],
        [{"label": "v", "mu": ["2", "0"], "nu": ["2", "0"], "mu_central": ["0"],
          "nu_central": ["0"], "classes": ["L", "W"]}]),
    "twist_witness": (lambda x: twist_by_witness(_C2_CQD, _REAL, {"v0": (x,)}).mu,
                      {"v0": (-3, 0)}),
}


@pytest.mark.parametrize("x", NOT_INTEGERS)
@pytest.mark.parametrize("reader", _INT_READERS)
def test_int_readers_refuse_non_integers(reader, x):
    with pytest.raises(InputError, match="expected an integer"):
        _INT_READERS[reader][0](x)


@pytest.mark.parametrize("x", TWOS)
@pytest.mark.parametrize("reader", _INT_READERS)
def test_int_readers_read_integers_exactly(reader, x):
    read, expected = _INT_READERS[reader]
    assert repr(read(x)) == repr(expected)


@pytest.mark.parametrize("x", NOT_RATIONALS)
@pytest.mark.parametrize("reader", _RATIONAL_READERS)
def test_rational_readers_refuse_inexact_values(reader, x):
    with pytest.raises(InputError, match="expected an int or a Fraction"):
        _RATIONAL_READERS[reader][0](x)


@pytest.mark.parametrize("x", TWOS)
@pytest.mark.parametrize("reader", _RATIONAL_READERS)
def test_rational_readers_read_values_exactly(reader, x):
    read, expected = _RATIONAL_READERS[reader]
    assert repr(read(x)) == repr(expected)


def test_rational_tuple_returns_values_as_they_are():
    half, two = Fraction(1, 2), Fraction(4, 2)
    assert [type(x) for x in rational_tuple([half, two, 3])] == [Fraction, Fraction, int]
    assert all(a is b for a, b in zip(rational_tuple([half, two]), (half, two)))
    ints = (1, -2, 3)
    assert rational_tuple(ints) is ints and int_tuple(ints) is ints
