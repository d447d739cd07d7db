import hashlib
import random
from fractions import Fraction
from itertools import product

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


def test_validate_catches_repeated_labels():
    # a repeated label would be read as a field of smaller degree
    ident = {"v0": "v0", "v1": "v1"}
    with pytest.raises(InputError, match="invalid embedding data: a label is repeated"):
        CMEmbeddingData.make(["v0", "v0", "v1"], ident, ["v0", "v1"], ident, ident,
                             "totally_real")
    with pytest.raises(InputError, match="invalid embedding data: a cm label is repeated"):
        CMEmbeddingData.make(["v0", "v1"], ident, ["v0", "v1", "v1"], ident, ident,
                             "totally_real")


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


def mixed_imaginary_data(rng):
    """general_imaginary data whose cm conjugation has fixed labels next to pairs.

    Each cm orbit receives one or two conjugate pairs of embeddings; over a
    fixed cm label both members of a pair restrict to it.  Label and cm label
    orders are shuffled, so no code may rely on them being sorted.
    """
    nfixed = rng.randint(0, 2)
    npairs = rng.randint(0 if nfixed == 2 else 1, 2 if nfixed == 0 else 1)
    cm_conj = {f"f{i}": f"f{i}" for i in range(nfixed)}
    for j in range(npairs):
        cm_conj[f"p{j}"], cm_conj[f"p{j}c"] = f"p{j}c", f"p{j}"
    conj, restrict = {}, {}
    for t in sorted(cm_conj):
        if t > cm_conj[t]:
            continue
        for _ in range(rng.randint(1, 2)):
            a, ac = f"e{len(conj)}", f"e{len(conj) + 1}"
            conj[a], conj[ac] = ac, a
            restrict[a], restrict[ac] = rng.sample([t, cm_conj[t]], 2)
    labels = rng.sample(sorted(conj), len(conj))
    cm_labels = rng.sample(sorted(cm_conj), len(cm_conj))
    return CMEmbeddingData.make(labels, conj, cm_labels, restrict, cm_conj,
                                "general_imaginary")


def galois_feasible_by_search(data, n, k):
    """Brute force: integer lifts l_t = k_t mod n with constant l_t + l_{cm_conj t}.

    The classes must first factor through the restriction.  Lifts in
    {k_t - n, k_t, k_t + n} (k_t in [0, n)) suffice: a solution with sum S
    stays one when S moves by 2n, so S may be taken in [0, 2n); then each
    fixed t has l_t = S/2 = k_t, and each pair may take l_t = k_t and
    l_tc = S - k_t, which lies in (-n, 2n).
    """
    by_cm = {}
    for l in data.labels:
        if by_cm.setdefault(data.restrict[l], k[l] % n) != k[l] % n:
            return False
    cm = list(data.cm_labels)
    for lift in product(*[(by_cm[t] - n, by_cm[t], by_cm[t] + n) for t in cm]):
        l = dict(zip(cm, lift))
        if len({l[t] + l[data.cm_conj[t]] for t in cm}) == 1:
            return True
    return False


def mixed_classes(rng, data, n, opposite):
    """Classes at the labels, often through the restriction, sometimes not.

    With ``opposite`` the classes at conjugate labels are opposite mod n,
    as hecke_extension_feasible requires.
    """
    fixed = [t for t in data.cm_labels if data.cm_conj[t] == t]
    c = {t: rng.randrange(n) for t in data.cm_labels}
    if rng.random() < 0.5:
        k0 = rng.randrange(n)
        w = 2 * k0 if fixed else rng.randrange(n)
        for t in sorted(data.cm_labels):
            tc = data.cm_conj[t]
            if tc == t:
                c[t] = k0
            elif t < tc:
                c[tc] = w - c[t]
    k = {l: c[data.restrict[l]] + n * rng.randint(-1, 1) for l in data.labels}
    if rng.random() < 0.25:
        k[rng.choice(data.labels)] = rng.randrange(-n, 2 * n)
    if opposite:
        for l in sorted(data.labels):
            if l < data.conj[l]:
                k[data.conj[l]] = -k[l]
    return k


def test_galchar_mixed_fixed_and_paired_cm_labels():
    rng = random.Random(20121)
    digest = hashlib.sha256()
    feasible = 0
    for _ in range(1500):
        data = mixed_imaginary_data(rng)
        n = rng.randint(2, 6)
        k = mixed_classes(rng, data, n, opposite=False)
        res = galois_char_feasible(data, n, k)
        assert (res is not None) == galois_feasible_by_search(data, n, k)
        if res is not None:
            feasible += 1
            for l in data.labels:
                assert (res.weights[l] - Fraction(k[l], n)).denominator == 1
            digest.update(repr((res.purity_weight, sorted(res.weights.items()))).encode())
        else:
            digest.update(b"None")
    assert feasible > 300
    # the witnesses themselves, pinned: the same inputs give the same weights
    assert digest.hexdigest() == "d527cf9addad3d789935ac89a09e895a00c6e777de0ec978c93a4e29b7c45004"


def test_hecke_mixed_fixed_and_paired_cm_labels():
    rng = random.Random(20122)
    seen = set()
    for _ in range(1500):
        data = mixed_imaginary_data(rng)
        n = rng.randint(2, 6)
        m = mixed_classes(rng, data, n, opposite=True)
        res = hecke_extension_feasible(data, n, m)
        classes = {}
        for l in data.labels:
            classes.setdefault(data.restrict[l], set()).add(m[l] % n)
        assert res.typeA == all(len(v) == 1 for v in classes.values())
        assert res.finite_order == all(m[l] % n == 0 for l in data.labels)
        seen.add((res.typeA, res.finite_order))
    assert seen == {(True, True), (True, False), (False, False)}
