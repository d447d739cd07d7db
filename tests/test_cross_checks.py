"""Cross-implementation and mixed-modulus checks."""
import random
from math import comb

import pytest
from test_rootdata import weyl_group

from liftcalc.cmdata import CMEmbeddingData
from liftcalc.intmat import FinAbGroup, InputError, IntMatrix
from liftcalc.lifting import HodgeFamily, geometric_lift_exists, obstruction_classes
from liftcalc.rootdata import (
    BasedRootDatum,
    center_characters,
    central_quotient_data,
    minimal_torus_embed,
    simple_type,
    validate,
)
from liftcalc.weights import restrict_multiset, _spin_of_so, _wedge2_weight_pairs
from liftcalc.weights import kuga_satake_spin_pullback


def composite_a2_a5():
    """Block sum of the simply connected A2 and A5 data: center Z/3 + Z/6."""
    a2 = simple_type("A", 2, "sc")
    a5 = simple_type("A", 5, "sc")
    rank = a2.rank + a5.rank
    roots = [tuple(r) + (0,) * a5.rank for r in a2.simple_roots] + \
            [(0,) * a2.rank + tuple(r) for r in a5.simple_roots]
    coroots = [tuple(r) + (0,) * a5.rank for r in a2.simple_coroots] + \
              [(0,) * a2.rank + tuple(r) for r in a5.simple_coroots]
    rd = BasedRootDatum(rank, tuple(roots), tuple(coroots))
    assert validate(rd) == "ok"
    return rd


def test_composite_center():
    rd = composite_a2_a5()
    assert center_characters(rd).group == FinAbGroup((3, 6), 0)


def test_mixed_moduli_totally_real_cross_check():
    rd = composite_a2_a5()
    cqd = central_quotient_data(rd, minimal_torus_embed(rd))
    assert cqd.d == (3, 6)
    rng = random.Random(17)
    for _ in range(40):
        nlabels = rng.randint(1, 3)
        data = CMEmbeddingData.totally_real(nlabels)
        mu = {f"v{i}": tuple(rng.randint(-3, 3) for _ in range(rd.rank))
              for i in range(nlabels)}
        h = HodgeFamily.make(data, mu)
        rep = geometric_lift_exists(cqd, h, "totally_real")
        # independent re-derivation: drop odd-modulus coordinates, ask constancy
        classes = obstruction_classes(cqd, h)
        even_idx = [i for i, d in enumerate(cqd.d) if d % 2 == 0]
        projected = {tuple(classes[l][i] for i in even_idx) for l in classes}
        assert (rep.decision == "lift_exists") == (len(projected) == 1)


def test_lambda_lifts_composite_and_sl3():
    rd = composite_a2_a5()
    cqd = central_quotient_data(rd, minimal_torus_embed(rd))
    assert cqd.r == 2
    sl3 = simple_type("A", 2, "sc")
    from liftcalc.rootdata import gm_embed
    cqd2 = central_quotient_data(sl3, gm_embed(sl3))
    assert cqd2.r == 1


def test_kuga_satake_alternative_pairings_g3():
    from liftcalc.intmat import IntMatrix
    from liftcalc.weights import LatticeMap
    g = 3
    N = comb(2 * g, 2) - 1
    n = N // 2
    pairs = _wedge2_weight_pairs(g)
    rng = random.Random(23)
    base = kuga_satake_spin_pullback(g).doubled
    for _ in range(3):
        perm = list(range(len(pairs)))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in perm]
        rows = []
        for i in range(g):
            rows.append([2 * signs[k] * pairs[perm[k]][i] if k < len(pairs) else 0
                         for k in range(n)])
        f = LatticeMap(n, g, IntMatrix(g, n, tuple(tuple(r) for r in rows)))
        ms = restrict_multiset(f, _spin_of_so(N, "both"))
        assert ms.doubled == base


def test_weyl_group_rejects_invalid():
    bad = BasedRootDatum.make([[1, -1], [-1, 1]], [[1, -1], [-1, 1]])
    with pytest.raises(InputError):
        weyl_group(bad)


def test_obstruction_dimension_mismatch():
    sl3 = simple_type("A", 2, "sc")
    from liftcalc.rootdata import gm_embed
    cqd = central_quotient_data(sl3, gm_embed(sl3))
    data = CMEmbeddingData.totally_real(1)
    h = HodgeFamily.make(data, {"v0": (1, 0, 0)})
    with pytest.raises(InputError):
        obstruction_classes(cqd, h)


def test_non_identity_embedding_normalizes_consistently():
    # Z/5 of the simply connected A4 type embedded in G_m by the class 2:
    # the normalized modulus is still 5 and decisions match the identity
    # embedding on every family
    rd = simple_type("A", 4, "sc")
    cqd_id = central_quotient_data(rd, IntMatrix.from_rows([[1]]))
    cqd_tw = central_quotient_data(rd, IntMatrix.from_rows([[2]]))
    assert cqd_id.d == cqd_tw.d == (5,)
    rng = random.Random(29)
    for _ in range(20):
        mu = tuple(rng.randint(-4, 4) for _ in range(rd.rank))
        k_id = cqd_id.theta(mu)[0]
        k_tw = cqd_tw.theta(mu)[0]
        # the normalized basis character of the twisted embedding restricts
        # to EN * generator, so EN k_tw = k_id mod 5 where EN is the
        # normalized restriction entry
        en = (cqd_tw.embed * cqd_tw.basis_change)[0, 0]
        assert (en * k_tw) % 5 == k_id % 5
    # decisions agree on random totally real families
    for _ in range(20):
        nlabels = rng.randint(1, 3)
        data = CMEmbeddingData.totally_real(nlabels)
        mu = {f"v{i}": tuple(rng.randint(-4, 4) for _ in range(rd.rank))
              for i in range(nlabels)}
        h = HodgeFamily.make(data, mu)
        d1 = geometric_lift_exists(cqd_id, h, "totally_real").decision
        d2 = geometric_lift_exists(cqd_tw, h, "totally_real").decision
        assert d1 == d2


def test_reductive_center_free_part():
    # GL2: the center characters are free of rank 1 (the determinant
    # direction); there is no torsion obstruction and the free coordinate
    # of a weight is its coordinate sum
    from liftcalc.rootdata import gl_datum
    rd = gl_datum(2)
    cqd = central_quotient_data(rd, minimal_torus_embed(rd))
    assert cqd.d == () and cqd.free_dirs == 1
    assert cqd.normalized_class((2, 1)) == ((), (3,))
    data = CMEmbeddingData.totally_real(2)
    h = HodgeFamily.make(data, {"v0": (1, 0), "v1": (3, -2)})
    rep = geometric_lift_exists(cqd, h, "totally_real")
    assert rep.decision == "lift_exists"
