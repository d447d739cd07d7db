"""Pins on the exceptional-type tables via independent classical values."""
import pytest
from test_rootdata import weyl_group

from liftcalc.rootdata import datum_by_name, positive_roots
from liftcalc.weights import irrep_weight_multiset, weyl_dimension


def multiplicity(ms, weight):
    """The multiplicity of a weight, 0 when it is absent."""
    return dict(ms.doubled).get(tuple(2 * x for x in weight), 0)


@pytest.mark.parametrize("name,count", [
    ("A3.sc", 6), ("B3.adjoint", 9), ("C4.sc", 16), ("D4.sc", 12),
    ("G2.sc", 6), ("F4.sc", 24), ("E6.sc", 36), ("E7.sc", 63), ("E8.sc", 120),
])
def test_positive_root_counts(name, count):
    assert len(positive_roots(datum_by_name(name))) == count


@pytest.mark.parametrize("name,lam,dim", [
    ("G2.sc", (1, 0), 7),
    ("G2.sc", (0, 1), 14),
    ("F4.sc", (1, 0, 0, 0), 52),
    ("F4.sc", (0, 0, 0, 1), 26),
    ("E6.sc", (1, 0, 0, 0, 0, 0), 27),
    ("E7.sc", (0, 0, 0, 0, 0, 0, 1), 56),
    ("E8.sc", (0, 0, 0, 0, 0, 0, 0, 1), 248),
])
def test_fundamental_dimensions(name, lam, dim):
    assert weyl_dimension(datum_by_name(name), lam) == dim


def test_g2_adjoint_multiset():
    # adjoint representation: the 12 roots plus a 2-dimensional zero space
    rd = datum_by_name("G2.sc")
    ms = irrep_weight_multiset(rd, (0, 1))
    assert ms.dimension == 14
    assert multiplicity(ms, (0, 0)) == 2
    nonzero = [w for w, m in ms.doubled if any(w)]
    assert len(nonzero) == 12 and all(dict(ms.doubled)[w] == 1 for w in nonzero)


@pytest.mark.parametrize("name,order", [
    ("F4.sc", 1152), ("E6.sc", 51840), ("B4.adjoint", 384), ("D5.sc", 1920),
])
def test_weyl_orders_larger(name, order):
    assert weyl_group(datum_by_name(name)).order == order
