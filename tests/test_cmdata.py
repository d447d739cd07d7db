import random
from fractions import Fraction

import pytest

from liftcalc.cmdata import (
    CMEmbeddingData,
    galois_char_feasible,
    hecke_extension_feasible,
)
from liftcalc.intmat import InputError


def general_imaginary_example():
    # four complex embeddings restricting two-to-one onto one CM pair
    labels = ("a", "ac", "b", "bc")
    conj = {"a": "ac", "ac": "a", "b": "bc", "bc": "b"}
    cm_labels = ("t", "tc")
    restrict = {"a": "t", "b": "t", "ac": "tc", "bc": "tc"}
    cm_conj = {"t": "tc", "tc": "t"}
    return CMEmbeddingData.make(labels, conj, cm_labels, restrict, cm_conj,
                                "general_imaginary")


def test_validate_examples():
    # embedding data check themselves when built
    assert CMEmbeddingData.totally_real(3).mode == "totally_real"
    assert CMEmbeddingData.cm_pairs(2).mode == "cm"
    assert general_imaginary_example().mode == "general_imaginary"


def test_validate_catches_non_equivariant_restrict():
    labels = ("a", "ac")
    conj = {"a": "ac", "ac": "a"}
    cm_labels = ("t", "tc")
    cm_conj = {"t": "tc", "tc": "t"}
    with pytest.raises(InputError, match="invalid embedding data: .*(equivariant|surjective)"):
        CMEmbeddingData.make(labels, conj, cm_labels,
                             {"a": "t", "ac": "t"}, cm_conj, "general_imaginary")


def test_validate_catches_bad_involution():
    labels = ("a", "b", "c")
    conj = {"a": "b", "b": "c", "c": "a"}
    with pytest.raises(InputError, match="invalid embedding data: conj is not an involution"):
        CMEmbeddingData.make(labels, conj, labels, {l: l for l in labels},
                             {l: l for l in labels}, "general_imaginary")


def test_hecke_cm_always_type_a():
    data = CMEmbeddingData.cm_pairs(2)
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(2, 9)
        m = {}
        for l in data.labels:
            if l in m:
                continue
            v = rng.randrange(n)
            m[l] = v
            m[data.conj[l]] = (-v) % n
        res = hecke_extension_feasible(data, n, m)
        assert res.typeA


def test_hecke_totally_real_always_type_a():
    data = CMEmbeddingData.totally_real(3)
    # conjugation-fixed labels need 2m = 0
    for n in (2, 4, 6):
        for pattern in ((0, 0, 0), (n // 2, 0, n // 2)):
            m = dict(zip(data.labels, pattern))
            res = hecke_extension_feasible(data, n, m)
            assert res.typeA and res.finite_order


def test_hecke_obstructed_general_imaginary():
    data = general_imaginary_example()
    m = {"a": 1, "ac": 4, "b": 2, "bc": 3}  # distinguishes a, b over the cm label t
    res = hecke_extension_feasible(data, 5, m)
    assert not res.typeA
    m2 = {"a": 1, "ac": 4, "b": 1, "bc": 4}
    res2 = hecke_extension_feasible(data, 5, m2)
    assert res2.typeA and not res2.finite_order
    res3 = hecke_extension_feasible(data, 5, {l: 0 for l in data.labels})
    assert res3.typeA and res3.finite_order


def test_hecke_rejects_non_opposite():
    data = CMEmbeddingData.cm_pairs(1)
    with pytest.raises(InputError):
        hecke_extension_feasible(data, 5, {"s0": 1, "s0c": 1})


def test_galchar_cm_purity_examples():
    data = CMEmbeddingData.cm_pairs(2)
    ok = galois_char_feasible(data, 2, {"s0": 1, "s0c": 0, "s1": 1, "s1c": 0})
    assert ok is not None and ok.purity_weight == 1
    bad = galois_char_feasible(data, 2, {"s0": 1, "s0c": 0, "s1": 0, "s1c": 0})
    assert bad is None


def test_galchar_totally_real():
    data = CMEmbeddingData.totally_real(3)
    ok = galois_char_feasible(data, 4, {l: 3 for l in data.labels})
    assert ok is not None and ok.purity_weight == 6 % 4
    assert all(w == Fraction(3, 4) for w in ok.weights.values())
    assert galois_char_feasible(data, 4, {"v0": 1, "v1": 1, "v2": 2}) is None
    # the closed form: classes all equal to k0 give weights k0/n and purity
    # weight 2 k0 mod n, and any other classes give None
    rng = random.Random(5150)
    for _ in range(400):
        data = CMEmbeddingData.totally_real(rng.randint(1, 4))
        n = rng.randint(1, 12)
        k = {l: rng.randrange(-n, 2 * n) for l in data.labels}
        if rng.random() < 0.4:
            k = dict.fromkeys(data.labels, rng.randrange(-n, 2 * n))
        res = galois_char_feasible(data, n, k)
        classes = {v % n for v in k.values()}
        if len(classes) > 1:
            assert res is None
            continue
        k0 = classes.pop()
        assert res.purity_weight == 2 * k0 % n
        assert res.weights == dict.fromkeys(data.labels, Fraction(k0, n))


def test_galchar_not_factoring():
    data = general_imaginary_example()
    assert galois_char_feasible(data, 3, {"a": 1, "b": 2, "ac": 0, "bc": 0}) is None


def test_galchar_witness_reverifies():
    rng = random.Random(1)
    for _ in range(200):
        npairs = rng.randint(1, 3)
        data = CMEmbeddingData.cm_pairs(npairs)
        n = rng.randint(2, 8)
        w = rng.randrange(n)
        k = {}
        for i in range(npairs):
            v = rng.randrange(n)
            k[f"s{i}"] = v
            k[f"s{i}c"] = (w - v) % n
        res = galois_char_feasible(data, n, k)
        assert res is not None
        assert res.purity_weight == w
        # witness reduces to the classes and has constant pair sums
        for l in data.labels:
            assert (res.weights[l] - Fraction(k[l], n)).denominator == 1
        sums = {res.weights[l] + res.weights[data.conj[l]] for l in data.labels}
        assert len(sums) == 1


def test_feasibility_invariant_under_relabeling():
    data = CMEmbeddingData.cm_pairs(2)
    k = {"s0": 1, "s0c": 2, "s1": 1, "s1c": 2}
    base = galois_char_feasible(data, 3, k)
    ren = {"s0": "x", "s0c": "y", "s1": "z", "s1c": "w"}
    data2 = CMEmbeddingData.make(
        [ren[l] for l in data.labels],
        {ren[a]: ren[b] for a, b in data.conj.items()},
        [ren[l] for l in data.cm_labels],
        {ren[a]: ren[b] for a, b in data.restrict.items()},
        {ren[a]: ren[b] for a, b in data.cm_conj.items()},
        "cm")
    res2 = galois_char_feasible(data2, 3, {ren[l]: v for l, v in k.items()})
    assert (base is None) == (res2 is None)
    if base is not None:
        assert base.purity_weight == res2.purity_weight


def test_hecke_invariant_under_relabeling():
    data = CMEmbeddingData.cm_pairs(2)
    m = {"s0": 1, "s0c": 4, "s1": 2, "s1c": 3}
    base = hecke_extension_feasible(data, 5, m)
    ren = {"s0": "p", "s0c": "q", "s1": "r", "s1c": "t"}
    data2 = CMEmbeddingData.make(
        [ren[l] for l in data.labels],
        {ren[a]: ren[b] for a, b in data.conj.items()},
        [ren[l] for l in data.cm_labels],
        {ren[a]: ren[b] for a, b in data.restrict.items()},
        {ren[a]: ren[b] for a, b in data.cm_conj.items()},
        "cm")
    res2 = hecke_extension_feasible(data2, 5, {ren[l]: v for l, v in m.items()})
    assert (base.typeA, base.finite_order) == (res2.typeA, res2.finite_order)
