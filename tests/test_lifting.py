import random
from fractions import Fraction

import pytest
from test_intmat import NOT_INTEGERS, TWOS

from liftcalc.cmdata import CMEmbeddingData, galois_char_feasible
from liftcalc.intmat import InputError
from liftcalc.lifting import (
    HodgeFamily,
    ParameterPair,
    algebraicity_class,
    classify_simple_types,
    geometric_lift_exists,
    lift_archimedean_parameter,
    obstruction_classes,
    twist_by_witness,
)
from liftcalc.rootdata import (
    central_quotient_data,
    datum_by_name,
    gl_datum,
    gm_embed,
    minimal_torus_embed,
    simple_type,
    sp_datum,
)


def sp_cqd(n):
    rd = sp_datum(n)
    return central_quotient_data(rd, gm_embed(rd))


def sl3_cqd():
    rd = simple_type("A", 2, "sc")
    return central_quotient_data(rd, gm_embed(rd))


def tr_family(mus, rank=None):
    data = CMEmbeddingData.totally_real(len(mus))
    return HodgeFamily.make(data, {f"v{i}": m for i, m in enumerate(mus)})


def test_obstruction_classes_sp4_parity():
    cqd = sp_cqd(2)
    h = tr_family([(2, 1), (1, 1), (0, 0), (3, 3)])
    cls = obstruction_classes(cqd, h)
    assert cls == {"v0": (1,), "v1": (0,), "v2": (0,), "v3": (0,)}


def test_obstruction_classes_adjoint_always_zero():
    rd = simple_type("A", 2, "adjoint")
    cqd = central_quotient_data(rd, minimal_torus_embed(rd))
    h = tr_family([(1, 0), (4, -3)])
    assert all(c == () for c in obstruction_classes(cqd, h).values())


def test_obstruction_classes_sl3():
    cqd = sl3_cqd()
    # oracle: the canonical quotient map X(T) -> Z/3 from the Smith form
    theta = cqd.theta((1, 0))
    assert theta[0] % 3 != 0
    h = tr_family([(1, 0)])
    assert obstruction_classes(cqd, h)["v0"] == theta


def test_theta_invariant_under_root_shifts():
    cqd = sp_cqd(2)
    rng = random.Random(3)
    roots = cqd.G.simple_roots
    for _ in range(50):
        mu = tuple(rng.randint(-5, 5) for _ in range(2))
        shift = list(mu)
        for a in roots:
            c = rng.randint(-3, 3)
            shift = [s + c * x for s, x in zip(shift, a)]
        assert cqd.theta(mu) == cqd.theta(tuple(shift))


def test_geometric_lift_totally_real_obstructed():
    cqd = sp_cqd(2)
    h = tr_family([(2, 1), (1, 1)])
    rep = geometric_lift_exists(cqd, h, "totally_real")
    assert rep.decision == "obstructed"
    assert rep.certificate == ("v0", "v1")
    assert rep.witness is None


def test_geometric_lift_totally_real_exists_with_witness():
    cqd = sp_cqd(2)
    h = tr_family([(1, 0), (2, 1)])
    rep = geometric_lift_exists(cqd, h, "totally_real")
    assert rep.decision == "lift_exists"
    assert rep.witness == {"v0": (Fraction(1, 2),), "v1": (Fraction(1, 2),)}
    assert rep.purity_weights == (0,)
    twisted = twist_by_witness(cqd, h, rep.witness)
    assert all(c == (0,) for c in obstruction_classes(cqd, twisted).values())


@pytest.mark.parametrize("witness,message", [
    # a float entry raised a raw AttributeError, a missing label a KeyError
    ({"v0": (Fraction(1, 2),), "v1": (0.5,)}, "expected an int or a Fraction"),
    ({"v0": (Fraction(1, 2),), "v1": ("1/2",)}, "expected an int or a Fraction"),
    ({"v0": (Fraction(1, 2),)}, "must cover exactly the labels"),
    ({"v0": (0,), "v1": (0,), "v2": (0,)}, "must cover exactly the labels"),
    ({"v0": (0,), "v1": ()}, "must have 1 entries"),
    ({"v0": (0,), "v1": (0, 0)}, "must have 1 entries"),
    ({"v0": (0,), "v1": (Fraction(1, 3),)}, "must clear the moduli denominators"),
])
def test_twist_by_witness_refuses_a_malformed_witness(witness, message):
    cqd = sp_cqd(2)
    h = tr_family([(1, 0), (2, 1)])
    with pytest.raises(InputError, match=message):
        twist_by_witness(cqd, h, witness)


def test_geometric_lift_odd_moduli_never_obstruct():
    cqd = sl3_cqd()
    rng = random.Random(11)
    for _ in range(20):
        h = tr_family([tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(3)])
        rep = geometric_lift_exists(cqd, h, "totally_real")
        assert rep.decision == "lift_exists"


def test_geometric_lift_imaginary_feasible_and_witness_sound():
    cqd = sp_cqd(2)
    data = CMEmbeddingData.cm_pairs(2)
    # classes with a purity weight: k + conj k = 1 mod 2
    mu = {"s0": (1, 0), "s0c": (0, 0), "s1": (2, 1), "s1c": (0, 2)}
    h = HodgeFamily.make(data, mu)
    rep = geometric_lift_exists(cqd, h, "imaginary")
    assert rep.decision == "lift_exists"
    twisted = twist_by_witness(cqd, h, rep.witness)
    assert all(c == (0,) for c in obstruction_classes(cqd, twisted).values())


def test_geometric_lift_imaginary_obstructed_purity():
    cqd = sp_cqd(2)
    data = CMEmbeddingData.cm_pairs(2)
    # pair sums 1 and 0 mod 2: no single purity weight
    mu = {"s0": (1, 0), "s0c": (0, 0), "s1": (0, 0), "s1c": (0, 0)}
    h = HodgeFamily.make(data, mu)
    rep = geometric_lift_exists(cqd, h, "imaginary")
    assert rep.decision == "obstructed"
    # the pair sums at s0 and s1 differ, 1 against 0; s0 and s0c have
    # different classes but are no obstruction: one cm pair alone lifts
    assert rep.certificate == ("s0", "s1")
    (d,) = rep.moduli
    a, b = rep.certificate
    assert ((rep.classes[a][0] + rep.classes[data.conj[a]][0]) % d
            != (rep.classes[b][0] + rep.classes[data.conj[b]][0]) % d)
    assert galois_char_feasible(CMEmbeddingData.cm_pairs(1), d, {"s0": 1, "s0c": 0})


def test_geometric_lift_sl3_imaginary_any_pure_family():
    cqd = sl3_cqd()
    data = CMEmbeddingData.cm_pairs(2)
    rng = random.Random(5)
    for _ in range(20):
        mu = {}
        w = rng.randrange(3)
        for i in range(2):
            v = tuple(rng.randint(-3, 3) for _ in range(2))
            mu[f"s{i}"] = v
            k = cqd.theta(v)[0]
            target = (w - k) % 3
            cur = cqd.theta((1, 0))[0]
            # adjust a multiple of (1,0) to land on the required class
            t = 0
            while (cqd.theta((t, 0))[0]) % 3 != target:
                t += 1
            mu[f"s{i}c"] = (t, 0)
        h = HodgeFamily.make(data, mu)
        rep = geometric_lift_exists(cqd, h, "imaginary")
        assert rep.decision == "lift_exists"


def test_mode_mismatch_rejected():
    cqd = sp_cqd(2)
    h = tr_family([(1, 0)])
    with pytest.raises(InputError):
        geometric_lift_exists(cqd, h, "imaginary")
    data = CMEmbeddingData.cm_pairs(1)
    h2 = HodgeFamily.make(data, {"s0": (1, 0), "s0c": (0, 0)})
    with pytest.raises(InputError):
        geometric_lift_exists(cqd, h2, "totally_real")


UNOBSTRUCTED = {"A2", "A4", "A6", "A8", "E6", "E8", "F4", "G2"}
OBSTRUCTED = {"B2", "B3", "B4", "B5", "B6", "B7", "B8",
              "C2", "C3", "C4", "C5", "C6", "C7", "C8",
              "D4", "D6", "D8", "E7"}


def test_classify_simple_types_table():
    rows = {r.name: r for r in classify_simple_types(8)}
    for name in UNOBSTRUCTED:
        assert not rows[name].obstruction_possible, name
    for name in OBSTRUCTED:
        assert rows[name].obstruction_possible, name
    assert rows["A4"].d == (5,) and rows["A4"].two_torsion == ()
    assert rows["E7"].d == (2,)
    assert rows["D4"].two_torsion == (2, 2)
    # counterexample flag: obstruction + discrete series; D_odd is excluded
    assert rows["D5"].obstruction_possible and not rows["D5"].automorphic_counterexample
    assert rows["C3"].automorphic_counterexample
    assert rows["E7"].automorphic_counterexample
    assert not rows["A3"].automorphic_counterexample or rows["A3"].name != "A3"


def test_classify_always_lifts_iff_no_two_torsion():
    for r in classify_simple_types(8):
        assert r.obstruction_possible == (len(r.two_torsion) > 0)


SL2 = datum_by_name("A1.sc")


def test_algebraicity_sl2_half():
    p = ParameterPair.make([Fraction(1, 2)], [Fraction(-1, 2)])
    assert algebraicity_class(SL2, p) == frozenset({"W"})


def test_algebraicity_gl2():
    gl2 = gl_datum(2)
    p = ParameterPair.make([Fraction(1, 2), Fraction(-1, 2)],
                           [Fraction(-1, 2), Fraction(1, 2)])
    assert algebraicity_class(gl2, p) == frozenset({"C", "W"})


def test_algebraicity_zero():
    for rd in (SL2, gl_datum(2), sp_datum(2)):
        p = ParameterPair.make([0] * rd.rank, [0] * rd.rank)
        cls = algebraicity_class(rd, p)
        assert "L" in cls and "W" in cls
        rho = [Fraction(x) for x in
               __import__("liftcalc.rootdata", fromlist=["half_sum_positive_roots"])
               .half_sum_positive_roots(rd)]
        assert ("C" in cls) == all(r.denominator == 1 for r in rho)


def sl2_cqd():
    rd = SL2
    return central_quotient_data(rd, gm_embed(rd))


def test_param_lift_cm_half():
    cqd = sl2_cqd()
    p = ParameterPair.make([Fraction(1, 2)], [Fraction(-1, 2)])
    rep = lift_archimedean_parameter(cqd, {"v": p}, "cm_typeA")
    lp = rep.lifted[0]
    assert lp.mu_central == (Fraction(1, 2),)
    assert "W" in lp.classes and "L" not in lp.classes
    assert rep.w_lift_exists


def test_param_lift_cm_integral_is_L():
    cqd = sl2_cqd()
    for m in (-2, -1, 0, 1, 3):
        p = ParameterPair.make([m], [-m])
        rep = lift_archimedean_parameter(cqd, {"v": p}, "cm_typeA")
        assert "L" in rep.lifted[0].classes
        assert rep.l_lift_exists


def test_param_lift_finite_order_mixed_parity():
    cqd = sl2_cqd()
    params = {"v1": ParameterPair.make([Fraction(1, 2)], [Fraction(-1, 2)]),
              "v2": ParameterPair.make([1], [-1])}
    rep = lift_archimedean_parameter(cqd, params, "finite_order")
    assert rep.two_torsion_images == {"v1": (1,), "v2": (0,)}
    assert rep.w_lift_exists and not rep.l_lift_exists


def test_param_lift_finite_order_constant_parity():
    cqd = sl2_cqd()
    params = {"v1": ParameterPair.make([Fraction(1, 2)], [Fraction(-1, 2)]),
              "v2": ParameterPair.make([Fraction(1, 2)], [Fraction(-1, 2)])}
    rep = lift_archimedean_parameter(cqd, params, "finite_order")
    assert rep.l_lift_exists and rep.w_lift_exists


@pytest.mark.parametrize("recipe", ["cm_typeA", "finite_order"])
def test_param_lift_w_needs_every_label(recipe):
    # 2 * (1/4) is not integral, so v2 alone keeps the W verdict false
    cqd = sl2_cqd()
    params = {"v1": ParameterPair.make([Fraction(1, 2)], [Fraction(-1, 2)]),
              "v2": ParameterPair.make([Fraction(1, 4)], [Fraction(-3, 4)])}
    rep = lift_archimedean_parameter(cqd, params, recipe, tempered=False)
    assert rep.input_classes == {"v1": frozenset({"W"}), "v2": frozenset()}
    assert not rep.w_lift_exists


def test_param_lift_trivial():
    cqd = sl2_cqd()
    rep = lift_archimedean_parameter(cqd, {"v": ParameterPair.make([0], [0])}, "finite_order")
    assert rep.l_lift_exists
    assert "L" in rep.lifted[0].classes


def test_param_lift_tempered_enforced():
    cqd = sl2_cqd()
    with pytest.raises(InputError):
        lift_archimedean_parameter(
            cqd, {"v": ParameterPair.make([1], [0])}, "cm_typeA", tempered=True)


@pytest.mark.parametrize("name", ["A1.sc", "A2.sc", "A3.sc", "B2.sc", "B3.sc", "C2.sc", "C3.sc"])
def test_param_lift_cm_random_L_inputs(name):
    rd = datum_by_name(name)
    cqd = central_quotient_data(rd, minimal_torus_embed(rd))
    rng = random.Random(hash(name) % 1000)
    for _ in range(15):
        mu = tuple(rng.randint(-4, 4) for _ in range(rd.rank))
        p = ParameterPair.make(mu, tuple(-x for x in mu))
        rep = lift_archimedean_parameter(cqd, {"v": p}, "cm_typeA")
        assert "L" in rep.lifted[0].classes


@pytest.mark.parametrize("x", NOT_INTEGERS)
def test_hodge_family_refuses_non_integers(x):
    data = CMEmbeddingData.totally_real(1)
    with pytest.raises(InputError, match="expected an integer"):
        HodgeFamily.make(data, {"v0": (x, 0)})


@pytest.mark.parametrize("x", TWOS)
def test_hodge_family_reads_integers_exactly(x):
    data = CMEmbeddingData.totally_real(1)
    assert repr(HodgeFamily.make(data, {"v0": (x, 0)}).mu) == repr({"v0": (2, 0)})
