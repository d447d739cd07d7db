"""Workload ``lattice-lifting``: the Tate-lifting pipeline.

Layers: intmat, rootdata, lifting, cmdata.  Smith forms and ``validate``
do nearly all of the work; weights, qforms and heisenberg do none.  Half
of the cocharacter lifts go through one fixed quotient, which a
factor-once change can reuse; the other half each get a fresh quotient,
which shows what such a change costs when no work is shared.
"""
from __future__ import annotations

from fractions import Fraction
from math import prod

from liftcalc.cmdata import CMEmbeddingData, galois_char_feasible, hecke_extension_feasible
from liftcalc.intmat import IntMatrix, torus_lift
from liftcalc.lifting import (
    HodgeFamily,
    ParameterPair,
    classify_simple_types,
    geometric_lift_exists,
    lift_archimedean_parameter,
    obstruction_classes,
    twist_by_witness,
)
from liftcalc.rootdata import (
    BasedRootDatum,
    central_quotient_data,
    datum_by_name,
    gm_embed,
    minimal_torus_embed,
    validate,
)

import oracles as O
from harness import expect

NAME = "lattice-lifting"

FIXED_LIFTS = 3000          # cocharacters lifted through the shared quotient
FRESH_LIFTS = 3000          # cocharacters each with a quotient of its own
CLASSIFY_RANK = 9
TOTALLY_REAL = 200
CM_FAMILIES = 200
PARAM_TYPES = ("A1.sc", "A2.sc", "A3.sc", "B2.sc", "B3.sc", "C2.sc", "C3.sc")
PARAMS_PER_TYPE = 10
FINITE_ORDER = 60
HECKE = 200
GALOIS = 200

FINITE_TYPES = tuple(
    [f"{f}{n}.{iso}" for f, n in O.simple_types(6) for iso in ("sc", "adjoint")]
    + ["E7.sc", "GL2", "GL3", "GSp4", "GSp6", "SO7"])
AFFINE_RANKS = (2, 4, 6, 8, 10)          # cyclic affine Cartan matrices of type A~_l
CQD_TYPES = tuple(
    [f"{f}{n}.sc" for f, n in O.simple_types(6)]
    + ["A3.adjoint", "C3.adjoint", "D4.adjoint", "E7.sc", "GL2", "GL3", "GSp4"])


def _constructed_quotient(rng, steps=3):
    """Q = P [diag(d1, d2) | 0] R with P, R seeded elementary products."""
    d = (rng.randint(1, 4), rng.randint(1, 6))
    p, p_inv = O.elementary(2, rng, steps)
    r, _ = O.elementary(3, rng, steps)
    q = O.mat_mul(O.mat_mul(p, [[d[0], 0, 0], [0, d[1], 0]]), r)
    return q, p_inv, d


def _cocharacter(rng, rows):
    """Half the cocharacters are images Q x, so they lift; the rest are random."""
    if rng.random() < 0.5:
        x = [rng.randint(-5, 5) for _ in rows[0]]
        return O.mat_vec(rows, x)
    return tuple(rng.randint(-30, 30) for _ in rows)


def _cm_family(rng, npairs, feasible):
    """Weights on C2.sc for a CM field with npairs conjugate pairs."""
    w = rng.randrange(2)
    mu = {}
    for i in range(npairs):
        base = (rng.randint(-5, 5), rng.randint(-5, 5))
        mu[f"s{i}"] = base
        adj = (rng.randint(-5, 5), rng.randint(-5, 5))
        if feasible and (sum(base) + sum(adj)) % 2 != w:
            adj = (adj[0] + 1, adj[1])
        mu[f"s{i}c"] = adj
    return mu


def make_inputs(rng, ctx):
    q0, p0_inv, d0 = _constructed_quotient(rng)
    fixed = [_cocharacter(rng, q0) for _ in range(FIXED_LIFTS)]
    fresh = []
    for _ in range(FRESH_LIFTS):
        if rng.random() < 0.5:
            k = rng.randint(2, 4)
            row = [0] * k
            while not any(row):
                row = [rng.randint(-12, 12) for _ in range(k)]
            fresh.append(("row", [row], None, None, _cocharacter(rng, [row])))
        else:
            q, p_inv, d = _constructed_quotient(rng)
            fresh.append(("2x3", q, p_inv, d, _cocharacter(rng, q)))
    totally_real = []
    for _ in range(TOTALLY_REAL):
        g = rng.randint(1, 4)
        k = rng.randint(1, 4)
        totally_real.append((g, {f"v{i}": tuple(rng.randint(-6, 6) for _ in range(g))
                                 for i in range(k)}))
    cm = [_cm_family(rng, rng.randint(1, 3), feasible=i % 4 != 3)
          for i in range(CM_FAMILIES)]
    params = []
    for name in PARAM_TYPES:
        rank = datum_rank(name)
        for _ in range(PARAMS_PER_TYPE):
            params.append((name, tuple(rng.randint(-5, 5) for _ in range(rank))))
    finite_order = []
    for _ in range(FINITE_ORDER):
        k = rng.randint(1, 4)
        finite_order.append({f"v{i}": Fraction(rng.randint(-8, 8), 2) for i in range(k)})
    hecke = []
    for i in range(HECKE):
        npairs, n = rng.randint(1, 3), rng.randint(2, 9)
        zero = i % 5 == 0
        m = {}
        for j in range(npairs):
            v = 0 if zero else rng.randrange(n)
            m[f"s{j}"], m[f"s{j}c"] = v, (-v) % n
        hecke.append((npairs, n, m))
    galois = []
    for i in range(GALOIS):
        npairs, n = rng.randint(1, 3), rng.randint(2, 9)
        w = rng.randrange(n)
        k = {}
        for j in range(npairs):
            v = rng.randrange(n)
            k[f"s{j}"] = v
            k[f"s{j}c"] = (w - v) % n if i % 2 == 0 else rng.randrange(n)
        galois.append((npairs, n, k))
    return {"q0": (q0, p0_inv, d0), "fixed": fixed, "fresh": fresh,
            "totally_real": totally_real, "cm": cm, "params": params,
            "finite_order": finite_order, "hecke": hecke, "galois": galois}


def datum_rank(name):
    return int(name.split(".")[0][1:])


def affine_datum(l):
    """The cyclic affine Cartan matrix of type A~_l, simply connected coordinates."""
    n = l + 1
    rows = [[2 if i == j else (-1 if (i - j) % n in (1, n - 1) else 0) for j in range(n)]
            for i in range(n)]
    coroots = [[int(i == j) for j in range(n)] for i in range(n)]
    return BasedRootDatum.make(rows, coroots)


# ---------------------------------------------------------------------------
# checks


def lift_check(rows, lam, exists):
    def check(x):
        expect((x is not None) == exists,
               f"lift decision {x is not None} against oracle {exists} for {rows}, {lam}")
        if x is not None:
            expect(O.mat_vec(rows, x) == tuple(lam), f"witness {x} does not compose back")
    return check


def check_cqd(name):
    def check(cqd):
        typ = name.split(".")[0]
        if name.endswith(".sc"):
            want = O.center_order(typ[0], int(typ[1:]))
        else:
            want = 1      # adjoint types, GL_n and GSp_2n have no torsion in the centre
        expect(prod(cqd.d) == want, f"{name}: prod d = {prod(cqd.d)}, want {want}")
    return check


def check_classify(max_rank):
    def check(rows):
        want = O.simple_types(max_rank)
        expect([r.name for r in rows] == [f"{f}{n}" for f, n in want], "type list differs")
        for r, (f, n) in zip(rows, want):
            check_row(r, f, n)
    return check


def check_row(r, f, n):
    want = O.simple_type_row(f, n)
    got = (prod(r.d), r.obstruction_possible, r.automorphic_counterexample)
    expect(got == want, f"{r.name}: (prod d, obstruction, counterexample) = {got}, want {want}")


def parity_check(mu):
    lifts = len({sum(v) % 2 for v in mu.values()}) == 1

    def check(rep):
        expect((rep.decision == "lift_exists") == lifts,
               f"parity oracle says {lifts}, program says {rep.decision} on {mu}")
    return check


def cm_check(mu, npairs):
    sums = {(sum(mu[f"s{i}"]) + sum(mu[f"s{i}c"])) % 2 for i in range(npairs)}
    lifts = len(sums) == 1

    def check(res):
        rep, classes = res
        expect((rep.decision == "lift_exists") == lifts,
               f"purity oracle says {lifts}, program says {rep.decision} on {mu}")
        if lifts:
            expect(all(c == (0,) for c in classes.values()),
                   f"witness twist left classes {classes}")
    return check


def finite_order_check(mus):
    l_lift = len({int(2 * m) % 2 for m in mus.values()}) == 1

    def check(rep):
        expect(rep.l_lift_exists == l_lift, f"integral lift verdict wrong on {mus}")
        expect(rep.w_lift_exists, f"half-integral parameters must W-lift: {mus}")
    return check


def hecke_check(m, n):
    def check(res):
        expect(res.typeA, f"type A must be unobstructed over CM data: {m}")
        expect(res.finite_order == all(v % n == 0 for v in m.values()),
               f"finite-order verdict wrong on {m}")
    return check


def galois_check(npairs, n, k):
    pure = len({(k[f"s{j}"] + k[f"s{j}c"]) % n for j in range(npairs)}) == 1

    def check(res):
        expect((res is not None) == pure, f"feasibility {res is not None}, want {pure} on {k}")
        if res is not None:
            wts = res.weights
            expect(all((wts[l] - Fraction(k[l], n)).denominator == 1 for l in k),
                   "witness does not reduce to the classes")
            expect(len({wts[f"s{j}"] + wts[f"s{j}c"] for j in range(npairs)}) == 1,
                   "witness is not pure")
    return check


# ---------------------------------------------------------------------------
# one round


def run_round(rec, inp, ctx):
    op = rec.op
    for name in FINITE_TYPES:
        op("validate", lambda: validate(datum_by_name(name)),
           lambda d: expect(d == "ok", f"{name} rejected: {d}"))
    for l in AFFINE_RANKS:
        op("validate-affine", lambda: validate(affine_datum(l)),
           lambda d: expect(d != "ok", f"affine A~{l} accepted as finite type"))

    cqds = {}
    for name in CQD_TYPES:
        cqds[name] = op("central_quotient_data",
                        lambda: central_quotient_data(
                            datum_by_name(name), minimal_torus_embed(datum_by_name(name))),
                        check_cqd(name))
    sp_gm = {}
    for g in range(1, 5):
        sp_gm[g] = op("central_quotient_data",
                      lambda: central_quotient_data(
                          datum_by_name(f"C{g}.sc"), gm_embed(datum_by_name(f"C{g}.sc"))),
                      check_cqd(f"C{g}.sc"))

    op("classify_simple_types", lambda: classify_simple_types(CLASSIFY_RANK),
       check_classify(CLASSIFY_RANK))

    q0_rows, p0_inv, d0 = inp["q0"]
    q0 = IntMatrix.from_rows(q0_rows)
    for lam in inp["fixed"]:
        op("torus_lift-fixed", lambda: torus_lift(q0, lam),
           lift_check(q0_rows, lam, O.lift_exists_constructed(p0_inv, d0, lam)))
    for kind, rows, p_inv, d, lam in inp["fresh"]:
        exists = (O.lift_exists_row(rows[0], lam[0]) if kind == "row"
                  else O.lift_exists_constructed(p_inv, d, lam))
        op("torus_lift-fresh", lambda: torus_lift(IntMatrix.from_rows(rows), lam),
           lift_check(rows, lam, exists))

    for g, mu in inp["totally_real"]:
        data = CMEmbeddingData.totally_real(len(mu))
        op("geometric_lift_exists-totally-real",
           lambda: geometric_lift_exists(sp_gm[g], HodgeFamily.make(data, mu), "totally_real"),
           parity_check(mu))

    def cm_lift(data, mu):
        h = HodgeFamily.make(data, mu)
        rep = geometric_lift_exists(sp_gm[2], h, "imaginary")
        if rep.decision != "lift_exists":
            return rep, None
        return rep, obstruction_classes(sp_gm[2], twist_by_witness(sp_gm[2], h, rep.witness))

    for mu in inp["cm"]:
        npairs = len(mu) // 2
        data = CMEmbeddingData.cm_pairs(npairs)
        op("geometric_lift_exists-cm", lambda: cm_lift(data, mu), cm_check(mu, npairs))

    for name, mu in inp["params"]:
        pairs = {"v": ParameterPair.make(mu, tuple(-x for x in mu))}
        op("lift_archimedean_parameter",
           lambda: lift_archimedean_parameter(cqds[name], pairs, "cm_typeA"),
           lambda rep: expect("L" in rep.lifted[0].classes,
                              f"L-algebraic input on {name} did not lift L-algebraically"))
    a1_gm = op("central_quotient_data",
               lambda: central_quotient_data(datum_by_name("A1.sc"),
                                             gm_embed(datum_by_name("A1.sc"))),
               check_cqd("A1.sc"))
    for mus in inp["finite_order"]:
        pairs = {l: ParameterPair.make([m], [-m]) for l, m in mus.items()}
        op("lift_archimedean_parameter",
           lambda: lift_archimedean_parameter(a1_gm, pairs, "finite_order"),
           finite_order_check(mus))

    for npairs, n, m in inp["hecke"]:
        op("hecke_extension_feasible",
           lambda: hecke_extension_feasible(CMEmbeddingData.cm_pairs(npairs), n, m),
           hecke_check(m, n))
    for npairs, n, k in inp["galois"]:
        op("galois_char_feasible",
           lambda: galois_char_feasible(CMEmbeddingData.cm_pairs(npairs), n, k),
           galois_check(npairs, n, k))
