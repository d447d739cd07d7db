"""Named end-to-end checks with time budgets.

Each check re-derives its expected values through an independent route
(gcd criteria, parity oracles, closed-form tables, structure constants)
and compares against the library's primary implementation.  The registry
backs both the test suite and the ``verify-paper`` CLI command.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cmdata import CMEmbeddingData, galois_char_feasible, hecke_extension_feasible
from .heisenberg import (
    heisenberg_group,
    elementwise_projective_conjugate,
    globally_twist_equivalent,
    rep_determinant_matches_closed_form,
    rep_rho,
)
from .intmat import BoundError, InputError, IntMatrix, smith_normal_form, torus_lift
from .lifting import (
    HodgeFamily,
    ParameterPair,
    classify_simple_types,
    geometric_lift_exists,
    lift_archimedean_parameter,
    obstruction_classes,
    twist_by_witness,
)
from .qforms import (
    QForm,
    even_clifford_split,
    even_clifford_split_oracle,
    invariants,
    k3_primitive,
)
from .rootdata import central_quotient_data, datum_by_name, gm_embed, minimal_torus_embed, sp_datum
from .weights import (
    center_action_parity,
    irrep_weight_multiset,
    kuga_satake_spin_pullback,
    sp_standard_multiset,
    verify_plethysm,
    verify_spin_branching,
    verify_spin_factorization,
    weyl_dimension,
)


class CheckFailure(AssertionError):
    pass


def _expect(cond, msg):
    if not cond:
        raise CheckFailure(msg)


def check_simple_type_table(rng):
    rows = {r.name: r for r in classify_simple_types(8)}
    unobstructed = {"A2", "A4", "A6", "A8", "E6", "E8", "F4", "G2"}
    obstructed = {f"B{n}" for n in range(2, 9)} | {f"C{n}" for n in range(2, 9)} \
        | {"D4", "D6", "D8", "E7"}
    for name in unobstructed:
        _expect(not rows[name].obstruction_possible, f"{name} wrongly flagged obstructed")
    for name in obstructed:
        _expect(rows[name].obstruction_possible, f"{name} wrongly flagged unobstructed")
    for name in ("D5", "D7"):
        _expect(rows[name].obstruction_possible and
                not rows[name].automorphic_counterexample,
                f"{name} should carry 2-torsion without a discrete-series construction")
    return {"rows": len(rows)}


def check_spin_parity(rng):
    total = 0
    for n in range(1, 5):
        rd = sp_datum(n)
        cqd = central_quotient_data(rd, gm_embed(rd))
        for _ in range(200):
            nlabels = rng.randint(1, 4)
            data = CMEmbeddingData.totally_real(nlabels)
            mu = {f"v{i}": tuple(rng.randint(-6, 6) for _ in range(n))
                  for i in range(nlabels)}
            h = HodgeFamily.make(data, mu)
            rep = geometric_lift_exists(cqd, h, "totally_real")
            parities = {sum(mu[l]) % 2 for l in mu}
            _expect((rep.decision == "lift_exists") == (len(parities) == 1),
                    f"parity oracle disagrees for Sp{2 * n} on {mu}")
            total += 1
    return {"instances": total}


def check_witness_soundness(rng):
    count = 0
    rd = sp_datum(2)
    cqd = central_quotient_data(rd, gm_embed(rd))
    while count < 200:
        npairs = rng.randint(1, 3)
        data = CMEmbeddingData.cm_pairs(npairs)
        w = rng.randrange(2)
        mu = {}
        for i in range(npairs):
            base = tuple(rng.randint(-5, 5) for _ in range(2))
            k = sum(base) % 2
            mu[f"s{i}"] = base
            # conjugate class must be w - k mod 2
            tgt = (w - k) % 2
            adj = tuple(rng.randint(-5, 5) for _ in range(2))
            if sum(adj) % 2 != tgt:
                adj = (adj[0] + 1, adj[1])
            mu[f"s{i}c"] = adj
        h = HodgeFamily.make(data, mu)
        rep = geometric_lift_exists(cqd, h, "imaginary")
        _expect(rep.decision == "lift_exists", f"constructed feasible instance rejected: {mu}")
        twisted = twist_by_witness(cqd, h, rep.witness)
        cls = obstruction_classes(cqd, twisted)
        _expect(all(c == (0,) for c in cls.values()),
                f"witness twist left nonzero classes: {cls}")
        count += 1
    return {"instances": count}


def check_parameter_lifting(rng):
    checked = 0
    for name in ("A1.sc", "A2.sc", "A3.sc", "B2.sc", "B3.sc", "C2.sc", "C3.sc"):
        rd = datum_by_name(name)
        cqd = central_quotient_data(rd, minimal_torus_embed(rd))
        for _ in range(15):
            mu = tuple(rng.randint(-5, 5) for _ in range(rd.rank))
            rep = lift_archimedean_parameter(
                cqd, {"v": ParameterPair.make(mu, tuple(-x for x in mu))}, "cm_typeA")
            _expect("L" in rep.lifted[0].classes,
                    f"L-algebraic input on {name} did not lift L-algebraically")
            checked += 1
    sl2 = datum_by_name("A1.sc")
    cqd = central_quotient_data(sl2, gm_embed(sl2))
    mixed = {"v1": ParameterPair.make([Fraction(1, 2)], [Fraction(-1, 2)]),
             "v2": ParameterPair.make([1], [-1])}
    rep = lift_archimedean_parameter(cqd, mixed, "finite_order")
    _expect(rep.w_lift_exists and not rep.l_lift_exists,
            "mixed-parity fixture must be W-but-not-L")
    const = {"v1": ParameterPair.make([Fraction(1, 2)], [Fraction(-1, 2)]),
             "v2": ParameterPair.make([Fraction(1, 2)], [Fraction(-1, 2)])}
    rep2 = lift_archimedean_parameter(cqd, const, "finite_order")
    _expect(rep2.l_lift_exists, "constant-parity fixture must admit an integral lift")
    return {"random_instances": checked}


def check_torus_lifting(rng):
    checked = 0
    for r in range(-10, 11):
        for s in range(-10, 11):
            if r == 0 and s == 0:
                continue
            Q = IntMatrix.from_rows([[r, s]])
            for n in range(-10, 11):
                got = torus_lift(Q, (n,))
                _expect((got is not None) == (n % gcd(r, s) == 0),
                        f"gcd criterion failed at r={r}, s={s}, n={n}")
                if got is not None:
                    _expect(Q.apply(got) == (n,), "witness does not compose back")
                checked += 1
    return {"instances": checked}


def check_weyl_dimension(rng):
    for g in range(1, 6):
        lam = tuple(g - 1 - i for i in range(g))
        _expect(weyl_dimension(sp_datum(g), lam) == 2 ** (g * (g - 1)),
                f"dimension formula failed at g={g}")
    for g in range(1, 4):
        lam = tuple(g - 1 - i for i in range(g))
        ms = irrep_weight_multiset(sp_datum(g), lam)
        _expect(ms.dimension == 2 ** (g * (g - 1)),
                f"multiset total disagrees at g={g}")
    return {"max_g": 5}


def check_kuga_satake_plethysm(rng):
    dims = {1: 2, 2: 64, 3: 32768}
    for g in (1, 2, 3):
        rep = verify_plethysm(g)
        _expect(rep.ok and rep.lhs_dim == dims[g],
                f"plethysm identity failed at g={g}: {rep}")
    pull = kuga_satake_spin_pullback(2)
    _expect(pull.doubled == sp_standard_multiset(2).doubled,
            "spin pullback at g=2 is not the standard multiset")
    return {"dims": dims}


def check_center_parity(rng):
    for g in range(1, 7):
        got = center_action_parity(g)
        want = "central_element_c" if g % 4 in (2, 3) else "trivial"
        _expect(got == want, f"center parity at g={g}: got {got}")
    return {"max_g": 6}


def check_spin_branching(rng):
    for c, d in ((3, 3), (2, 2), (2, 3), (3, 2)):
        rep = verify_spin_branching(c, d)
        _expect(rep.ok, f"spin branching failed at ({c}, {d}): {rep}")
    for a, t in ((2, 3), (3, 3), (2, 2)):
        rep = verify_spin_factorization(a, t)
        _expect(rep.ok, f"spin factorization failed at ({a}, {t}): {rep}")
    for c, d in ((2, 2), (3, 2)):
        rep = verify_spin_branching(c, d, variant="gl")
        _expect(rep.ok, f"gl-variant branching failed at ({c}, {d}): {rep}")
    return {"cases": 9}


def check_k3_clifford(rng):
    res = even_clifford_split(k3_primitive(2))
    _expect(res.split and res.matrix_size == 2 ** 10,
            f"K3 even Clifford algebra must be M_(2^10): {res}")
    agreed = 0
    while agreed < 500:
        rank = rng.choice([1, 3, 5])
        rows = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
        gram = [[rows[i][j] + rows[j][i] for j in range(rank)] for i in range(rank)]
        q = QForm.from_gram(gram)
        try:
            table = even_clifford_split(q)
        except (InputError, BoundError):
            continue
        oracle = even_clifford_split_oracle(q)
        _expect(table.split == oracle.split,
                f"table and structure constants disagree on {gram}")
        agreed += 1
    return {"sampled_forms": agreed}


def check_hasse_product(rng):
    done = 0
    while done < 1000:
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        gram = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
        try:
            invariants(QForm.from_gram(gram))  # raises if the product formula fails
        except (InputError, BoundError):
            continue
        done += 1
    return {"forms": done}


def check_heisenberg(rng):
    for n in (3, 4, 5):
        us = [a for a in range(1, n) if gcd(a, n) == 1]
        for a in us:
            for b in us:
                if a == b:
                    continue
                r1, r2 = rep_rho(n, a), rep_rho(n, b)
                same, _ = elementwise_projective_conjugate(r1, r2)
                _expect(same, f"element-wise conjugacy failed at n={n}, {a} vs {b}")
                _expect(not globally_twist_equivalent(r1, r2),
                        f"distinct units wrongly twist-equivalent at n={n}")
    for n in range(2, 13):
        for a in (x for x in range(1, n) if gcd(x, n) == 1):
            _expect(rep_determinant_matches_closed_form(n, a),
                    f"closed-form determinants differ from the matrix walk at n={n}, alpha={a}")
    # the defining relation as an exact matrix identity
    for n in (3, 4, 5):
        G = heisenberg_group(n)
        for a in (x for x in range(1, n) if gcd(x, n) == 1):
            r = rep_rho(n, a)
            conj = G.mul(G.mul((1, 0, 0), (0, 1, 0)), G.inv((1, 0, 0)))
            _expect(r.rho(conj) == r.rho((0, 1, 0)).scale(a),
                    f"defining relation failed at n={n}, alpha={a}")
    return {"moduli": [3, 4, 5], "det_table_max": 12}


def check_smith_normal_form(rng):
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        A = IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)])
        form = smith_normal_form(A)
        _expect((form.U * A * form.V).entries == form.D.entries, "U A V != D")
        _expect(form.U.is_unimodular() and form.V.is_unimodular(),
                "transforms not unimodular")
        d = form.invariant_factors
        _expect(all(b % a == 0 for a, b in zip(d, d[1:])), "divisibility chain broken")
        acc = 1
        for k in range(1, min(rows, cols) + 1):
            g = A.minor_gcd(k)
            if k <= len(d):
                _expect(g == acc * d[k - 1], "gcd-of-minors mismatch")
                acc = g
            else:
                _expect(g == 0, "nonzero minor beyond the rank")
    return {"matrices": 1000}


def check_gl1_feasibility(rng):
    for _ in range(250):
        data = CMEmbeddingData.cm_pairs(rng.randint(1, 3))
        n = rng.randint(2, 9)
        m = {}
        for l in data.labels:
            if l in m:
                continue
            v = rng.randrange(n)
            m[l] = v
            m[data.conj[l]] = (-v) % n
        _expect(hecke_extension_feasible(data, n, m).typeA,
                "type A must be unobstructed over CM data")
    for _ in range(250):
        data = CMEmbeddingData.totally_real(rng.randint(1, 4))
        n = 2 * rng.randint(1, 4)
        m = {l: rng.choice((0, n // 2)) for l in data.labels}
        _expect(hecke_extension_feasible(data, n, m).typeA,
                "type A must be unobstructed over totally real data")
    verified = 0
    while verified < 500:
        npairs = rng.randint(1, 3)
        data = CMEmbeddingData.cm_pairs(npairs)
        n = rng.randint(2, 9)
        w = rng.randrange(n)
        k = {}
        for i in range(npairs):
            v = rng.randrange(n)
            k[f"s{i}"] = v
            k[f"s{i}c"] = (w - v) % n
        res = galois_char_feasible(data, n, k)
        _expect(res is not None, "constructed pure instance rejected")
        # the witness construction re-verifies internally; confirm the weight
        for l in data.labels:
            _expect((res.weights[l] - Fraction(k[l], n)).denominator == 1,
                    "witness does not reduce to the classes")
        verified += 1
    return {"hecke": 500, "galois": verified}


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    ok: bool
    elapsed: float
    budget: float
    details: dict
    error: str = ""

    def to_json(self):
        return {
            "check": self.check_id,
            "pass": self.ok,
            "elapsed_seconds": round(self.elapsed, 3),
            "budget_seconds": self.budget,
            "details": self.details,
            "error": self.error,
        }


REGISTRY = [
    ("simple-type-table", 5.0, check_simple_type_table),
    ("spin-parity-criterion", 10.0, check_spin_parity),
    ("witness-soundness", 10.0, check_witness_soundness),
    ("parameter-lifting", 5.0, check_parameter_lifting),
    ("torus-lifting-gcd", 1.0, check_torus_lifting),
    ("weyl-dimension", 30.0, check_weyl_dimension),
    ("kuga-satake-plethysm", 60.0, check_kuga_satake_plethysm),
    ("spin-center-parity", 5.0, check_center_parity),
    ("spin-branching", 30.0, check_spin_branching),
    ("k3-clifford-splitness", 60.0, check_k3_clifford),
    ("hasse-product-formula", 30.0, check_hasse_product),
    ("heisenberg-local-global", 30.0, check_heisenberg),
    ("smith-normal-form", 10.0, check_smith_normal_form),
    ("gl1-feasibility", 10.0, check_gl1_feasibility),
]


def run_check(check_id: str, seed: int = 0) -> CheckResult:
    entry = next((e for e in REGISTRY if e[0] == check_id), None)
    if entry is None:
        valid = ", ".join(e[0] for e in REGISTRY)
        raise InputError(f"unknown check {check_id!r}; valid checks: {valid}")
    _, budget, func = entry
    rng = random.Random(seed)
    start = time.perf_counter()
    try:
        details = func(rng)
        elapsed = time.perf_counter() - start
        return CheckResult(check_id, True, elapsed, budget, details)
    except Exception as exc:
        elapsed = time.perf_counter() - start
        return CheckResult(check_id, False, elapsed, budget, {}, f"{type(exc).__name__}: {exc}")


def run_all(seed: int = 0):
    return [run_check(cid, seed) for cid, _, _ in REGISTRY]
