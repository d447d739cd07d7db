"""Command-line front end.

Exit codes: 0 success, 1 a verification failed or a lift is obstructed,
2 malformed input, 3 a feasibility bound was exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

from .acceptance import run_all, run_check
from .cmdata import CMEmbeddingData, galois_char_feasible, hecke_extension_feasible
from .heisenberg import (
    elementwise_projective_conjugate,
    globally_twist_equivalent,
    rep_determinant,
    rep_rho,
)
from .intmat import BoundError, InputError, IntMatrix, torus_lift
from .lifting import (
    HodgeFamily,
    ParameterPair,
    classify_simple_types,
    geometric_lift_exists,
    lift_archimedean_parameter,
)
from .qforms import QForm, even_clifford_split, invariants, k3_primitive
from .rootdata import central_quotient_data, datum_by_name, gm_embed, minimal_torus_embed
from .weights import (
    spin_weight_multiset,
    verify_plethysm,
    verify_spin_branching,
    verify_spin_factorization,
    weyl_dimension,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_BOUND = 3


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


@contextmanager
def _payload(name):
    """Report key, type and shape errors met while parsing a JSON payload as InputError."""
    try:
        yield
    except InputError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad {name} payload: {exc}") from exc


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k, v in value.items():
                print(f"  {k}: {v}")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{key}:")
            for row in value:
                print("  " + "  ".join(f"{k}={v}" for k, v in row.items()))
        else:
            print(f"{key}: {value}")


def _cqd_from_args(args):
    rd = datum_by_name(args.group)
    if getattr(args, "tilde_embed", None):
        embed = IntMatrix.from_json(_load_json(args.tilde_embed))
    elif args.tilde == "gm":
        embed = gm_embed(rd)
    elif args.tilde == "minimal":
        embed = minimal_torus_embed(rd)
    else:
        raise InputError(f"unknown torus extension {args.tilde!r}")
    return rd, central_quotient_data(rd, embed)


def cmd_lift_check(args, fmt, seed):
    _, cqd = _cqd_from_args(args)
    payload = _load_json(args.hodge)
    with _payload("lift-check"):
        data = CMEmbeddingData.from_json(payload["cm"])
        h = HodgeFamily.make(data, {l: tuple(int(x) for x in v)
                                    for l, v in payload["mu"].items()})
    mode = "totally_real" if args.mode == "totally-real" else "imaginary"
    rep = geometric_lift_exists(cqd, h, mode)
    out = rep.to_json()
    out["check"] = "central-quotient-lift"
    out["seed"] = seed
    _emit(out, fmt)
    return EXIT_OK if rep.decision == "lift_exists" else EXIT_VERIFICATION


def cmd_param_lift(args, fmt, seed):
    _, cqd = _cqd_from_args(args)
    payload = _load_json(args.params)
    pairs = {}
    with _payload("param-lift"):
        for label, pv in payload["pairs"].items():
            mu = [Fraction(str(x)) for x in pv["mu"]]
            nu = [Fraction(str(x)) for x in pv["nu"]]
            pairs[label] = ParameterPair.make(mu, nu)
    recipe = "cm_typeA" if args.recipe == "cm-typeA" else "finite_order"
    rep = lift_archimedean_parameter(cqd, pairs, recipe,
                                     tempered=not args.non_tempered)
    out = rep.to_json()
    out["check"] = "archimedean-parameter-lift"
    out["seed"] = seed
    _emit(out, fmt)
    return EXIT_OK


def cmd_classify(args, fmt, seed):
    rows = classify_simple_types(args.max_rank)
    out = {
        "check": "simple-type-table",
        "seed": seed,
        "table": [r.to_json() for r in rows],
    }
    _emit(out, fmt)
    return EXIT_OK


def cmd_torus_lift(args, fmt, seed):
    payload = _load_json(args.input)
    with _payload("torus-lift"):
        Q = IntMatrix.from_json(payload["quotient"])
        lam = tuple(int(x) for x in payload["cocharacter"])
    lift = torus_lift(Q, lam)
    out = {
        "check": "torus-cocharacter-lift",
        "seed": seed,
        "lift_exists": lift is not None,
        "witness": list(lift) if lift is not None else None,
    }
    _emit(out, fmt)
    return EXIT_OK if lift is not None else EXIT_VERIFICATION


def cmd_hecke(args, fmt, seed):
    payload = _load_json(args.input)
    with _payload("hecke-feasible"):
        data = CMEmbeddingData.from_json(payload["cm"])
        n, m = int(payload["n"]), {l: int(v) for l, v in payload["m"].items()}
        grunwald_wang = bool(payload.get("grunwald_wang", False))
    res = hecke_extension_feasible(data, n, m, grunwald_wang)
    out = {"check": "hecke-extension", "seed": seed,
           "typeA": res.typeA, "finite_order": res.finite_order,
           "annotation": res.annotation}
    _emit(out, fmt)
    return EXIT_OK


def cmd_galchar(args, fmt, seed):
    payload = _load_json(args.input)
    with _payload("galois-char-feasible"):
        data = CMEmbeddingData.from_json(payload["cm"])
        n, k = int(payload["n"]), {l: int(v) for l, v in payload["k"].items()}
    res = galois_char_feasible(data, n, k)
    out = {"check": "fractional-weight-character", "seed": seed,
           "feasible": res is not None}
    if res is not None:
        out["purity_weight"] = res.purity_weight
        out["witness"] = {l: str(w) for l, w in res.weights.items()}
    _emit(out, fmt)
    return EXIT_OK if res is not None else EXIT_VERIFICATION


def cmd_spin_weights(args, fmt, seed):
    ms = spin_weight_multiset(args.n, args.family, args.half)
    out = {"check": "spin-weights", "seed": seed,
           "dimension": ms.dimension,
           "weights": [{"weight": [str(x) for x in w], "multiplicity": m}
                       for w, m in ms.weights()]}
    _emit(out, fmt)
    return EXIT_OK


def _parse_branch_target(to: str):
    if "*" in to:
        a, t = to.split("*")
        return ("pair", int(a.strip().removeprefix("so")), int(t.strip().removeprefix("so")))
    base, _, power = to.partition("^")
    power = int(power) if power else 1
    base = base.strip()
    if base.startswith("so"):
        return ("so", int(base[2:]), power)
    if base.startswith("gl"):
        return ("gl", int(base[2:]), power)
    raise InputError(f"cannot parse branch target {to!r}")


def cmd_branch(args, fmt, seed):
    kind, c, d = _parse_branch_target(args.to)
    if kind == "pair":
        rep = verify_spin_factorization(c, d, bound=args.bound)
        expected_from = f"so{c + d}"
    elif kind == "so":
        rep = verify_spin_branching(c, d, bound=args.bound)
        expected_from = f"so{c * d}"
    else:
        rep = verify_spin_branching(c, 2 * d, variant="gl", bound=args.bound)
        expected_from = f"so{2 * c * d}"
    if args.source and args.source != expected_from:
        raise InputError(f"target {args.to!r} lives inside {expected_from}, not {args.source!r}")
    out = rep.to_json()
    out["check"] = "spin-branching"
    out["seed"] = seed
    _emit(out, fmt)
    return EXIT_OK if rep.ok else EXIT_VERIFICATION


def cmd_plethysm(args, fmt, seed):
    rep = verify_plethysm(args.g, bound=args.bound)
    out = rep.to_json()
    out["check"] = "exterior-algebra-plethysm"
    out["seed"] = seed
    _emit(out, fmt)
    return EXIT_OK if rep.ok else EXIT_VERIFICATION


def cmd_dim(args, fmt, seed):
    rd = datum_by_name(args.group)
    lam = [Fraction(x) for x in args.weight.split(",")]
    out = {"check": "weyl-dimension", "seed": seed,
           "group": args.group, "weight": [str(x) for x in lam],
           "dimension": weyl_dimension(rd, lam)}
    _emit(out, fmt)
    return EXIT_OK


def cmd_qform(args, fmt, seed):
    q = QForm.from_json(_load_json(args.gram))
    inv = invariants(q)
    out = inv.to_json()
    out["check"] = "quadratic-form-invariants"
    out["seed"] = seed
    _emit(out, fmt)
    return EXIT_OK


def cmd_clifford(args, fmt, seed):
    if args.builtin == "k3":
        q = k3_primitive(args.q_eta)
    elif args.gram:
        q = QForm.from_json(_load_json(args.gram))
    else:
        raise InputError("provide --builtin k3 or a Gram matrix file")
    res = even_clifford_split(q)
    out = res.to_json()
    out["check"] = "even-clifford-splitness"
    out["seed"] = seed
    _emit(out, fmt)
    return EXIT_OK


def cmd_heisenberg(args, fmt, seed):
    r1 = rep_rho(args.n, args.alpha)
    r2 = rep_rho(args.n, args.beta)
    same, _ = elementwise_projective_conjugate(r1, r2)
    twist = globally_twist_equivalent(r1, r2)
    def fmt_det(d):
        sign, e = d
        s = "" if sign > 0 else "-"
        return f"{s}zeta^{e}"
    out = {
        "check": "heisenberg-local-global",
        "seed": seed,
        "n": args.n,
        "alpha": args.alpha,
        "beta": args.beta,
        "elementwise_projectively_conjugate": same,
        "globally_twist_equivalent": twist,
        "determinants_alpha": {k: fmt_det(v) for k, v in rep_determinant(r1).items()},
        "determinants_beta": {k: fmt_det(v) for k, v in rep_determinant(r2).items()},
    }
    _emit(out, fmt)
    return EXIT_OK


def cmd_verify(args, fmt, seed):
    if args.check:
        results = [run_check(args.check, seed)]
    else:
        results = run_all(seed)
    rows = [r.to_json() for r in results]
    ok = all(r.ok for r in results)
    within = all(r.elapsed <= r.budget for r in results)
    out = {"check": "verify-all", "seed": seed, "all_pass": ok,
           "within_budgets": within, "results": rows}
    _emit(out, fmt)
    return EXIT_OK if ok else EXIT_VERIFICATION


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")
    common.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
    p = argparse.ArgumentParser(
        prog="liftcalc",
        description="Exact computations with root data, lifting obstructions, "
                    "spin branching, quadratic forms, and Heisenberg representations.")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("lift-check", parents=[common], help="decide geometric liftability of a weight family")
    s.add_argument("--group", required=True)
    s.add_argument("--tilde", default="minimal", help="gm | minimal")
    s.add_argument("--tilde-embed", help="JSON file with an explicit embedding matrix")
    s.add_argument("--mode", choices=("totally-real", "imaginary"), required=True)
    s.add_argument("--hodge", required=True, help="JSON file with cm data and mu")
    s.set_defaults(func=cmd_lift_check)

    s = sub.add_parser("param-lift", parents=[common], help="lift archimedean parameters")
    s.add_argument("--group", required=True)
    s.add_argument("--tilde", default="minimal")
    s.add_argument("--tilde-embed")
    s.add_argument("--recipe", choices=("cm-typeA", "finite-order"), required=True)
    s.add_argument("--non-tempered", action="store_true")
    s.add_argument("params")
    s.set_defaults(func=cmd_param_lift)

    s = sub.add_parser("classify-simple-types", parents=[common], help="the obstruction table")
    s.add_argument("--max-rank", type=int, default=8)
    s.set_defaults(func=cmd_classify)

    s = sub.add_parser("torus-lift", parents=[common], help="lift a cocharacter through a torus quotient")
    s.add_argument("input", help="JSON with quotient matrix and cocharacter")
    s.set_defaults(func=cmd_torus_lift)

    s = sub.add_parser("hecke-feasible", parents=[common], help="type A extension feasibility")
    s.add_argument("input")
    s.set_defaults(func=cmd_hecke)

    s = sub.add_parser("galois-char-feasible", parents=[common], help="fractional weight feasibility")
    s.add_argument("input")
    s.set_defaults(func=cmd_galchar)

    s = sub.add_parser("spin-weights", parents=[common], help="spin / half-spin weight multisets")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--family", choices=("B", "D"), required=True)
    s.add_argument("--half", choices=("plus", "minus", "both"), default="both")
    s.set_defaults(func=cmd_spin_weights)

    s = sub.add_parser("branch", parents=[common], help="verify a spin branching identity")
    s.add_argument("--from", dest="source", help="e.g. so9")
    s.add_argument("--to", required=True, help="so3^3 | gl2^2 | so2*so3")
    s.add_argument("--bound", type=int, default=2 ** 20)
    s.set_defaults(func=cmd_branch)

    s = sub.add_parser("plethysm-check", parents=[common], help="exterior algebra identity")
    s.add_argument("--g", type=int, required=True)
    s.add_argument("--bound", type=int, default=3)
    s.set_defaults(func=cmd_plethysm)

    s = sub.add_parser("dim", parents=[common], help="Weyl dimension of a highest weight")
    s.add_argument("--group", required=True)
    s.add_argument("--weight", required=True, help="comma-separated, e.g. 2,1,0")
    s.set_defaults(func=cmd_dim)

    s = sub.add_parser("qform-invariants", parents=[common], help="signature, discriminant, Hasse symbols")
    s.add_argument("gram")
    s.set_defaults(func=cmd_qform)

    s = sub.add_parser("clifford-split", parents=[common], help="even Clifford splitness of an odd-rank form")
    s.add_argument("--builtin", choices=("k3",))
    s.add_argument("--q-eta", type=int, default=2)
    s.add_argument("--gram")
    s.set_defaults(func=cmd_clifford)

    s = sub.add_parser("heisenberg-demo", parents=[common], help="local-global conjugacy report")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--alpha", type=int, required=True)
    s.add_argument("--beta", type=int, required=True)
    s.set_defaults(func=cmd_heisenberg)

    s = sub.add_parser("verify-paper", parents=[common], help="run the full acceptance suite")
    s.add_argument("--check", help="run a single named check")
    s.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, args.format, args.seed)
    except BoundError as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
