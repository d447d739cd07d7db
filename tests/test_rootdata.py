import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from test_intmat import NOT_INTEGERS, TWOS, random_unimodular

from liftcalc import intmat, rootdata
from liftcalc.lifting import classify_simple_types
from liftcalc.intmat import (
    BoundError,
    FinAbGroup,
    InputError,
    IntMatrix,
    invert_unimodular,
    smith_normal_form,
)
from liftcalc.rootdata import (
    MAX_DATUM_RANK,
    BasedRootDatum,
    CenterMap,
    central_quotient_data,
    center_characters,
    datum_by_name,
    dual,
    gl_datum,
    gm_embed,
    gsp_datum,
    half_sum_positive_roots,
    longest_element_is_minus_one,
    minimal_torus_embed,
    positive_coroots,
    positive_roots,
    simple_type,
    sp_datum,
    validate,
)

SL2 = BasedRootDatum.make([[2]], [[1]])


def reflection_matrix(rd, root, coroot):
    """The reflection x -> x - <x, coroot> root as a matrix on X."""
    n = rd.rank
    return IntMatrix.from_rows(
        [[(1 if a == b else 0) - root[a] * coroot[b] for b in range(n)] for a in range(n)])


def simple_reflections(rd):
    return [reflection_matrix(rd, a, av)
            for a, av in zip(rd.simple_roots, rd.simple_coroots)]


@dataclass(frozen=True)
class WeylGroup:
    generators: tuple
    order: int


def weyl_group(rd):
    """Simple reflections as integer matrices plus the group order.

    The order is found by enumerating the orbit of the regular vector
    2*rho-hat, whose stabilizer is trivial; an invalid datum raises
    InputError when rho-hat is computed.
    """
    rho2 = tuple(int(2 * c) for c in half_sum_positive_roots(rd))
    gens = simple_reflections(rd)
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


def simple_root_matrix(rd):
    """The rank x l matrix whose columns are the simple roots."""
    return IntMatrix.from_rows(list(zip(*rd.simple_roots)) or [[]] * rd.rank)


def in_root_lattice(rd, vec):
    return intmat.solve_linear(simple_root_matrix(rd), tuple(int(x) for x in vec)) is not None


def test_validate_sl2():
    assert validate(SL2) == "ok"


def test_validate_bad_pairing():
    bad = BasedRootDatum.make([[3]], [[1]])
    assert "pairing != 2" in validate(bad)


def test_validate_gsp4():
    assert validate(gsp_datum(2)) == "ok"


def test_validate_infinite_type():
    # affine A1: Cartan [[2,-2],[-2,2]] has determinant 0
    bad = BasedRootDatum.make([[1, -1], [-1, 1]], [[1, -1], [-1, 1]])
    assert "finite type" in validate(bad)


# (simple roots, simple coroots, rank, diagnostic); each breaks one axiom before the minor loop
REFUSED_DATA = [
    ([[2]], [[1], [1]], None, "number of simple roots and coroots differ"),
    ([[2, 0]], [[1]], 2, "vector length does not match rank"),
    ([[1, 0], [0, 1]], [[2, 1], [1, 2]], None, "positive off-diagonal Cartan entry at (0, 1)"),
    ([[1, 0], [0, 1]], [[2, -1], [0, 2]], None, "asymmetric Cartan vanishing at (0, 1)"),
]


@pytest.mark.parametrize("roots, coroots, rank, diagnostic", REFUSED_DATA,
                         ids=[r[-1] for r in REFUSED_DATA])
def test_validate_names_the_broken_axiom(roots, coroots, rank, diagnostic):
    assert validate(BasedRootDatum.make(roots, coroots, rank)) == diagnostic


@pytest.mark.parametrize("name, message", [
    ("GSp5", "GSp rank must be even"),
    ("SO6", "use simple_type for even orthogonal data"),
])
def test_datum_by_name_refuses_odd_gsp_and_even_so(name, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        datum_by_name(name)


# singular generalized Cartan matrices, of affine types A1, A2 (twisted),
# A2, C2, G2 and D4: every proper principal minor is positive, det C = 0
SINGULAR_CARTANS = [
    [[2, -2], [-2, 2]],
    [[2, -4], [-1, 2]],
    [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    [[2, -1, 0], [-2, 2, -2], [0, -1, 2]],
    [[2, -1, 0], [-1, 2, -1], [0, -3, 2]],
    [[2, -1, -1, -1, -1], [-1, 2, 0, 0, 0], [-1, 0, 2, 0, 0], [-1, 0, 0, 2, 0],
     [-1, 0, 0, 0, 2]],
]


def test_dependent_simple_roots_or_coroots_fail_at_a_minor():
    # validate has no independence check of its own: roots alpha_i = (C W)_i
    # and coroots alpha_j^vee = (W^-1)^j pair to C[i][j] for any unimodular W,
    # the roots are dependent because C is singular, and a principal minor
    # catches them; the dual datum has the dependent coroots
    rng = random.Random(1114)
    for _ in range(60):
        C = rng.choice(SINGULAR_CARTANS)
        l = len(C)
        perm = rng.sample(range(l), l)
        C = IntMatrix.from_rows([[C[i][j] for j in perm] for i in perm])
        assert C.det() == 0
        W = random_unimodular(l, rng)
        extra = rng.randint(0, 2)
        roots = [list(r) + [0] * extra for r in (C * W).entries]
        coroots = [list(c) + [rng.randint(-3, 3) for _ in range(extra)]
                   for c in invert_unimodular(W).transpose().entries]
        rd = BasedRootDatum.make(roots, coroots)
        assert rd.cartan_matrix() == C
        assert smith_normal_form(IntMatrix.from_rows(roots)).rank < l
        for datum in (rd, dual(rd)):
            assert validate(datum).startswith("Cartan principal minor")


def test_dual_sl2_is_pgl2():
    assert dual(SL2) == simple_type("A", 1, "adjoint")


def test_dual_involution():
    # a datum is its rank, roots and coroots, so dualizing twice gives it back
    data = [datum_by_name(name) for name, _, _ in ORACLE_DATA]
    for rd in (rd for rd in data if rd.semisimple_rank <= 6):
        assert dual(dual(rd)) == rd


def test_dual_center_vs_fundamental_group():
    # the dual of Sp_2n is an adjoint datum; its fundamental group, read as
    # the center characters of the re-dualized datum, is Z/2 on both sides
    for n in (1, 2, 3):
        sp = sp_datum(n)
        assert center_characters(sp).group == FinAbGroup((2,), 0)
        assert center_characters(dual(sp)).group.is_trivial
        assert center_characters(dual(dual(sp))).group == FinAbGroup((2,), 0)


@pytest.mark.parametrize("name,order", [
    ("A1.sc", 2),
    ("C2.sc", 8),
    ("G2.sc", 12),
    ("A2.sc", 6),
    ("B3.adjoint", 48),
    ("D4.sc", 192),
])
def test_weyl_orders(name, order):
    assert weyl_group(datum_by_name(name)).order == order


def test_weyl_order_c2_by_orbit_of_regular_vector():
    # oracle: enumerate the orbit of (2, 1) under the two reflections directly
    rd = sp_datum(2)
    gens = weyl_group(rd).generators
    seen = {(2, 1)}
    frontier = [(2, 1)]
    while frontier:
        nxt = []
        for v in frontier:
            for s in gens:
                w = s.apply(v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    assert len(seen) == 8


FUNDAMENTAL_GROUP_TABLE = [
    ("A", 1, (2,)), ("A", 2, (3,)), ("A", 3, (4,)), ("A", 4, (5,)),
    ("A", 5, (6,)), ("A", 6, (7,)), ("A", 7, (8,)), ("A", 8, (9,)),
    ("B", 2, (2,)), ("B", 3, (2,)), ("B", 5, (2,)),
    ("C", 2, (2,)), ("C", 3, (2,)), ("C", 8, (2,)),
    ("D", 4, (2, 2)), ("D", 5, (4,)), ("D", 6, (2, 2)), ("D", 7, (4,)),
    ("E", 6, (3,)), ("E", 7, (2,)), ("E", 8, ()),
    ("F", 4, ()), ("G", 2, ()),
]


@pytest.mark.parametrize("family,rank,factors", FUNDAMENTAL_GROUP_TABLE)
def test_center_characters_table(family, rank, factors):
    rd = simple_type(family, rank, "sc")
    assert center_characters(rd).group == FinAbGroup(tuple(factors), 0)


def test_center_adjoint_trivial():
    for name in ("A2.adjoint", "B3.adjoint", "D4.adjoint", "E6.adjoint"):
        assert center_characters(datum_by_name(name)).group.is_trivial


def test_center_gl3():
    # GL3: X(Z) = Z (the determinant direction)
    assert center_characters(gl_datum(3)).group == FinAbGroup((), 1)


def test_center_characters_of_tori():
    # semisimple rank 0, which no golden digest covers
    assert center_characters(gl_datum(1)) == CenterMap(
        FinAbGroup((), 1), IntMatrix(1, 1, ((1,),)))
    assert center_characters(BasedRootDatum.make([], [], rank=2)) == CenterMap(
        FinAbGroup((), 2), IntMatrix(2, 2, ((1, 0), (0, 1))))


def test_central_quotient_data_factors_each_matrix_once(monkeypatch):
    seen = []
    cached = intmat._smith_form

    def recording(A):
        seen.append(A)
        return cached(A)

    monkeypatch.setattr(intmat, "_smith_form", recording)
    rd = datum_by_name("C3.sc")
    cached.cache_clear()
    cqd = central_quotient_data(rd, minimal_torus_embed(rd))
    assert cached.cache_info().misses <= len(set(seen))
    # the normalized-class system is factored on the first class only
    misses = cached.cache_info().misses
    cqd.theta((1, 0, 0))
    cqd.theta((0, 1, 1))
    assert cached.cache_info().misses <= misses + 1


def test_half_sum_examples():
    rd = sp_datum(2)
    assert positive_roots(rd) == tuple(sorted([(1, -1), (0, 2), (1, 1), (2, 0)]))
    assert half_sum_positive_roots(rd) == (Fraction(2), Fraction(1))
    assert half_sum_positive_roots(SL2) == (Fraction(1),)


@pytest.mark.parametrize("name", [
    "A1.sc", "A2.sc", "C2.sc", "C3.sc", "B2.adjoint", "B3.adjoint",
    "D4.sc", "G2.sc", "F4.sc", "GSp4", "GL3",
])
def test_two_rho_in_root_lattice(name):
    rd = datum_by_name(name)
    rho2 = tuple(int(2 * c) for c in half_sum_positive_roots(rd))
    assert in_root_lattice(rd, rho2)


def test_simple_type_c2_coordinates():
    rd = simple_type("C", 2, "sc")
    assert rd.simple_roots == ((1, -1), (0, 2))
    assert rd.simple_coroots == ((1, -1), (0, 1))


def test_simple_type_a1_adjoint_is_pgl2():
    rd = simple_type("A", 1, "adjoint")
    assert rd.simple_roots == ((1,),)
    assert rd.simple_coroots == ((2,),)


def test_simple_type_e6_center():
    assert center_characters(simple_type("E", 6, "sc")).group == FinAbGroup((3,), 0)


def test_simple_type_rejects_bad_input():
    with pytest.raises(InputError):
        simple_type("E", 5, "sc")
    with pytest.raises(InputError):
        simple_type("A", 1, "isogenous")


def test_standard_data_are_built_once():
    assert sp_datum(2) is sp_datum(2)
    assert datum_by_name("C2.sc") is sp_datum(2)
    assert simple_type("C", 2, "sc") is sp_datum(2)
    assert datum_by_name("SO7") is rootdata.so_odd_datum(3)
    assert datum_by_name("GSp6") is gsp_datum(3)
    assert datum_by_name("GL4") is gl_datum(4)
    assert datum_by_name("E6.sc") is simple_type("E", 6, "sc")
    assert datum_by_name("e6.sc") is simple_type("e", 6, "sc") is simple_type("E", 6, "sc")


def test_each_standard_datum_is_validated_once(monkeypatch):
    for builder in ("_simple_type", "_sp_datum", "_so_odd_datum", "_gsp_datum", "_gl_datum"):
        getattr(rootdata, builder).cache_clear()
    seen = []
    real = rootdata.validate

    def counting(rd):
        seen.append((rd.rank, rd.simple_roots, rd.simple_coroots))
        return real(rd)

    monkeypatch.setattr(rootdata, "validate", counting)
    for _ in range(3):
        for name in ("C3.sc", "B3.adjoint", "SO7", "GSp4", "GL3", "A2.sc", "E6.adjoint",
                     "C2.sc", "B1.sc"):
            datum_by_name(name)
        sp_datum(3)
        simple_type("c", 3, "sc")
        simple_type("e", 6, "adjoint")
        datum_by_name("a2.sc")
        gsp_datum(2)
    # C3.sc (behind B3.adjoint and SO7 too), GSp4 and the C2.sc inside it,
    # GL3, A2.sc, E6.adjoint and B1.sc; the family's case makes no new datum
    assert len(seen) == len(set(seen)) == 7


def _count_validations(monkeypatch):
    """Empty every builder and per-datum cache of rootdata, then record each
    datum given to validate in the list returned."""
    for value in list(vars(rootdata).values()):
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    seen = []
    real = rootdata.validate

    def counting(rd):
        seen.append(rd)
        return real(rd)

    monkeypatch.setattr(rootdata, "validate", counting)
    return seen


def test_classify_validates_each_type_three_times(monkeypatch):
    # the builder, the centre (shared by minimal_torus_embed and
    # central_quotient_data) and longest_element_is_minus_one
    seen = _count_validations(monkeypatch)
    classify_simple_types(8)
    assert len(set(seen)) == 32
    assert len(seen) == 96


def test_quotient_of_the_minimal_embedding_validates_once(monkeypatch):
    seen = _count_validations(monkeypatch)
    rd = BasedRootDatum.make([[1, -1], [0, 2]], [[1, -1], [0, 1]])
    central_quotient_data(rd, minimal_torus_embed(rd))
    assert seen == [rd]


def test_an_invalid_datum_is_refused_on_every_call(monkeypatch):
    # affine A~2: every proper principal minor is positive, det C = 0; a
    # functools cache stores no exception, so the second call checks again
    seen = _count_validations(monkeypatch)
    C = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    rd = BasedRootDatum.make(C, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for _ in range(2):
        with pytest.raises(InputError, match="principal minor"):
            center_characters(rd)
    assert seen == [rd, rd]


def test_equal_data_share_one_center_map():
    rd = datum_by_name("C3.sc")
    copy = BasedRootDatum.make([list(r) for r in rd.simple_roots],
                               [list(r) for r in rd.simple_coroots])
    assert copy == rd and copy is not rd
    assert center_characters(copy) is center_characters(rd)


@pytest.mark.parametrize("build,args", [
    (sp_datum, (2,)), (gl_datum, (3,)), (gsp_datum, (2,)), (rootdata.so_odd_datum, (2,)),
    (simple_type, ("A", 2, "sc")),
])
def test_a_float_argument_is_not_the_cached_int(build, args):
    # the caches are typed: an equal float is its own key, and builds (and
    # fails) as it would with no cache
    build(*args)
    floated = tuple(float(a) if type(a) is int else a for a in args)
    with pytest.raises(TypeError):
        build(*floated)


@pytest.mark.parametrize("build,args", [
    (sp_datum, (0,)), (gl_datum, (0,)), (simple_type, ("A", 0, "sc")),
    (gsp_datum, (0,)), (rootdata.so_odd_datum, (0,)), (simple_type, ("A", 2, "isogenous")),
])
def test_invalid_builder_arguments_raise_on_every_call(build, args):
    # functools caches keep no exception, so a bad argument never becomes a datum
    for _ in range(3):
        with pytest.raises(InputError):
            build(*args)


@pytest.mark.parametrize("name", ["A2.sc", "C2.sc", "B3.adjoint", "D4.sc", "GSp4"])
def test_weyl_translates_stay_in_root_lattice(name):
    rd = datum_by_name(name)
    gens = weyl_group(rd).generators
    rng = random.Random(7)
    for _ in range(20):
        chi = tuple(rng.randint(-4, 4) for _ in range(rd.rank))
        w = chi
        for _ in range(rng.randint(1, 5)):
            w = gens[rng.randrange(len(gens))].apply(w)
        diff = tuple(a - b for a, b in zip(w, chi))
        assert in_root_lattice(rd, diff)


def test_longest_element():
    assert longest_element_is_minus_one(sp_datum(3))
    assert longest_element_is_minus_one(datum_by_name("B3.adjoint"))
    assert longest_element_is_minus_one(datum_by_name("E7.sc"))
    assert not longest_element_is_minus_one(datum_by_name("A2.sc"))
    assert not longest_element_is_minus_one(datum_by_name("D5.sc"))
    assert longest_element_is_minus_one(datum_by_name("D4.sc"))


@pytest.mark.parametrize("name,semisimple,expected", [
    ("GL2", "A1.sc", True),
    ("GL3", "A2.sc", False),
    ("GSp4", "C2.sc", True),
    ("GSp6", "C3.sc", True),
])
def test_longest_element_on_reductive_data(name, semisimple, expected):
    # w0 acts on the root span only, so a central torus must not change the verdict
    assert longest_element_is_minus_one(datum_by_name(name)) is expected
    assert longest_element_is_minus_one(datum_by_name(semisimple)) is expected


# every simple type up to rank 8 in both isogenies (B1 = C1 = A1 included),
# and GL_n, GSp_2g and SO_2n+1 up to semisimple rank 8, with the number of
# positive roots in closed form and whether w0 = -1 (Bourbaki, Lie VI,
# Planches: exactly A1, B_n, C_n, D_2k, E7, E8, F4 and G2)
SIMPLE_RANKS = {"A": range(1, 9), "B": range(1, 9), "C": range(1, 9), "D": range(3, 9),
                "E": (6, 7, 8), "F": (4,), "G": (2,)}
EXCEPTIONAL_COUNTS = {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}


def _oracle_data():
    for family, ranks in SIMPLE_RANKS.items():
        for n in ranks:
            count = {"A": n * (n + 1) // 2, "B": n * n, "C": n * n,
                     "D": n * (n - 1)}.get(family) or EXCEPTIONAL_COUNTS[family, n]
            minus_one = (family in "BCFG" or (family, n) in (("A", 1), ("E", 7), ("E", 8))
                         or (family == "D" and n % 2 == 0))
            for iso in ("sc", "adjoint"):
                yield f"{family}{n}.{iso}", count, minus_one
    for n in range(1, 9):
        yield f"GL{n + 1}", n * (n + 1) // 2, n == 1
        yield f"GSp{2 * n}", n * n, True
        yield f"SO{2 * n + 1}", n * n, True


ORACLE_DATA = list(_oracle_data())


@pytest.mark.parametrize("name,count,minus_one", ORACLE_DATA)
def test_positive_roots_and_w0_against_closed_forms(name, count, minus_one):
    rd = datum_by_name(name)
    pos = positive_roots(rd)
    assert len(pos) == len(set(pos)) == count
    M = simple_root_matrix(rd)
    for b in pos:
        coords = intmat.solve_linear(M, b)
        assert coords is not None and min(coords) >= 0 and any(coords)
    # s_i permutes the positive roots other than alpha_i
    pos_set = set(pos)
    for a, av in zip(rd.simple_roots, rd.simple_coroots):
        for b in pos:
            if b != a:
                p = rd.pairing(b, av)
                assert tuple(x - p * y for x, y in zip(b, a)) in pos_set
    assert longest_element_is_minus_one(rd) is minus_one


def test_cqd_sp2n_gm():
    for n in (1, 2, 3):
        rd = sp_datum(n)
        cqd = central_quotient_data(rd, gm_embed(rd))
        assert cqd.d == (2,)
        assert cqd.r == 1 and cqd.trivial_dirs == 0 and cqd.free_dirs == 0


def test_cqd_sl3_gm():
    rd = simple_type("A", 2, "sc")
    cqd = central_quotient_data(rd, gm_embed(rd))
    assert cqd.d == (3,)


def test_cqd_adjoint_trivial():
    rd = simple_type("A", 2, "adjoint")
    cqd = central_quotient_data(rd, minimal_torus_embed(rd))
    assert cqd.d == () and cqd.r == 0


def test_cqd_d4_minimal():
    rd = simple_type("D", 4, "sc")
    cqd = central_quotient_data(rd, minimal_torus_embed(rd))
    assert cqd.d == (2, 2)


def test_cqd_rejects_non_surjective():
    rd = simple_type("A", 2, "sc")
    with pytest.raises(InputError, match="not surjective on character groups"):
        central_quotient_data(rd, IntMatrix.from_rows([[0]]))
    rd2 = sp_datum(2)
    with pytest.raises(InputError, match="not surjective on character groups"):
        central_quotient_data(rd2, IntMatrix.from_rows([[2]]))


def test_cqd_extra_torus_directions():
    # Z/2 into G_m^2 where the second factor restricts trivially
    rd = sp_datum(2)
    embed = IntMatrix.from_rows([[1, 0]])
    cqd = central_quotient_data(rd, embed)
    assert cqd.d == (2,) and cqd.trivial_dirs == 1 and cqd.free_dirs == 0


def test_cqd_lambda_lifts():
    # Z/2 into one G_m: one kernel generator d_1 w_1; construction verified
    # the exact sequence, and a second construction gives equal data
    rd = sp_datum(2)
    cqd = central_quotient_data(rd, gm_embed(rd))
    assert cqd.r == 1
    assert central_quotient_data(rd, gm_embed(rd)) == cqd


def test_theta_parity_sp4():
    rd = sp_datum(2)
    cqd = central_quotient_data(rd, gm_embed(rd))
    assert cqd.theta((2, 1)) == (1,)
    assert cqd.theta((1, 1)) == (0,)


def test_gm_embed_rejects_noncyclic():
    with pytest.raises(InputError):
        gm_embed(simple_type("D", 4, "sc"))


def coroot_table_by_dual_walk(rd):
    """Coroot of every root: a second reflection closure, with the dual datum's reflections."""
    table = {}
    refl = simple_reflections(rd)
    corefl = simple_reflections(BasedRootDatum(rd.rank, rd.simple_coroots, rd.simple_roots))
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


BUILTIN_NAMES = (
    [f"{family}{rank}.{iso}" for family, ranks in (("A", range(1, 7)), ("B", range(1, 7)),
                                                  ("C", range(1, 7)), ("D", range(3, 7)))
     for rank in ranks for iso in ("sc", "adjoint")]
    + [f"{typ}.{iso}" for typ in ("E6", "E7", "E8", "F4", "G2") for iso in ("sc", "adjoint")]
    + ["GL3", "GSp4", "GSp6", "SO7"])


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_positive_coroots_match_dual_walk(name):
    rd = datum_by_name(name)
    roots, coroots = positive_roots(rd), positive_coroots(rd)
    table = coroot_table_by_dual_walk(rd)
    assert len(table) == 2 * len(roots) == 2 * len(coroots)
    assert coroots == tuple(table[b] for b in roots)
    assert all(rd.pairing(b, bv) == 2 for b, bv in zip(roots, coroots))


def test_positive_coroots_of_a_torus():
    rd = gl_datum(1)
    assert positive_roots(rd) == positive_coroots(rd) == ()


@pytest.mark.parametrize("name,rank", [
    ("A{}.sc", MAX_DATUM_RANK), ("C{}.adjoint", MAX_DATUM_RANK),
    ("GL{}", MAX_DATUM_RANK + 1), ("GSp{}", 2 * MAX_DATUM_RANK), ("SO{}", 2 * MAX_DATUM_RANK + 1),
])
def test_datum_name_rank_bound(monkeypatch, name, rank):
    # the semisimple rank is read off the name before any builder runs
    built = []
    for builder in ("gl_datum", "gsp_datum", "so_odd_datum", "simple_type"):
        monkeypatch.setattr(rootdata, builder, lambda *args, b=builder: built.append(b))
    datum_by_name(name.format(rank))
    assert len(built) == 1
    with pytest.raises(BoundError, match="exceeds the bound"):
        datum_by_name(name.format(rank + (2 if name.startswith(("GSp", "SO")) else 1)))
    assert len(built) == 1


def test_so_odd_datum_in_e_coordinates():
    # B_n adjoint, built as the dual of Sp_2n: roots e_i - e_{i+1} and e_n,
    # coroots e_i - e_{i+1} and 2e_n
    for n in range(1, MAX_DATUM_RANK + 1):
        steps = [tuple(1 if k == i else -1 if k == i + 1 else 0 for k in range(n))
                 for i in range(n - 1)]
        e_n = tuple(int(k == n - 1) for k in range(n))
        want = BasedRootDatum(n, (*steps, e_n), (*steps, tuple(2 * x for x in e_n)))
        assert rootdata.so_odd_datum(n) == want == dual(sp_datum(n))
        if n <= 6:
            assert validate(want) == "ok"
    with pytest.raises(InputError, match="rank must be >= 1"):
        rootdata.so_odd_datum(0)


_C2 = datum_by_name("C2.sc")
_C2_CQD = central_quotient_data(_C2, minimal_torus_embed(_C2))

# each integer reader of rootdata, given the entry x, and its answer at x = 2
_INT_READERS = {
    "make": (lambda x: BasedRootDatum.make([[x]], [[1]]), BasedRootDatum(1, ((2,),), ((1,),))),
    "class_of": (lambda x: center_characters(_C2).class_of((x, 0)), (0,)),
    "theta": (lambda x: _C2_CQD.theta((x, 0)), (0,)),
    "pair_psi": (lambda x: _C2_CQD.pair_in_extended_lattice((2, 0), (x,)), True),
}


@pytest.mark.parametrize("x", NOT_INTEGERS)
@pytest.mark.parametrize("reader", _INT_READERS)
def test_int_readers_refuse_non_integers(reader, x):
    if reader == "pair_psi" and isinstance(x, Fraction):
        # a rational psi is a point of the rational lattice, just not of the integral one
        assert _INT_READERS[reader][0](x) is False
        return
    with pytest.raises(InputError, match="expected an integer"):
        _INT_READERS[reader][0](x)


@pytest.mark.parametrize("x", TWOS)
@pytest.mark.parametrize("reader", _INT_READERS)
def test_int_readers_read_integers_exactly(reader, x):
    read, expected = _INT_READERS[reader]
    assert repr(read(x)) == repr(expected)
