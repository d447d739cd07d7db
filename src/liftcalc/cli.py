"""Command-line front end.

Each ``cmd_*`` handler parses its input, computes and returns its report
with an exit code; ``main`` writes every report, as JSON or as a table.

Only ``intmat`` is imported eagerly.  Every other layer is registered
lazily and runs on its first use, so each subcommand executes only the
layers it runs: ``dim`` runs ``rootdata`` and ``weights``,
``heisenberg-demo`` only ``heisenberg``, and ``verify-paper`` every layer
through ``acceptance``.  On a 2-vCPU Xeon with Python 3.11 and
``PYTHONDONTWRITEBYTECODE=1``, ``import liftcalc.cli`` takes 38 ms and a
fresh ``liftcalc dim`` 0.145 s, against 109 ms and 0.189 s when every
layer is imported eagerly (medians of 20 interleaved runs each).

Exit codes: 0 success, 1 a verification failed, a lift is obstructed or
stdout closed before the report was written, 2 malformed input, 3 a
feasibility bound was exceeded.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

from .intmat import BoundError, InputError, IntMatrix, torus_lift


def _lazy(name):
    """The layer ``liftcalc.<name>``, registered in ``sys.modules`` but not yet executed.

    The stdlib ``LazyLoader`` runs the module's code on its first attribute
    read, so a subcommand executes only the layers its handler touches.  A
    layer imported before the CLI is returned as it is.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


acceptance, cmdata, heisenberg, lifting, qforms, rootdata, weights = map(
    _lazy, ("acceptance", "cmdata", "heisenberg", "lifting", "qforms", "rootdata", "weights"))

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_BOUND = 3


@contextmanager
def _payload(name, path):
    """Yield the JSON payload at path; report a file that does not read as JSON,
    and key, type and value errors met parsing the payload, as InputError.

    This is the one site where a malformed payload becomes exit 2.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:  # bad JSON, bad UTF-8 and too many digits
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc
    try:
        yield payload
    except InputError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad {name} payload: {exc}") from exc


def json_number(x, parse=int):
    """parse(x) for a JSON integer or string; TypeError for any other value.

    A JSON float is refused rather than truncated or rounded: int(1.5) is
    1, Fraction(0.1) is the binary value nearest 0.1, and 1e400 is inf.
    """
    if type(x) not in (int, str):
        raise TypeError(f"expected an integer or a string, not {type(x).__name__}")
    return parse(x)


def rational(x) -> Fraction:
    """Fraction(x) for an integer or a string such as "-3", "1/2" or "0.25".

    A string with an exponent is refused: Fraction("1e20000000") expands
    the exponent into a 20-million-digit integer and runs without bound.
    """
    if isinstance(x, str) and ("e" in x or "E" in x):
        raise ValueError(f"exponent notation is not accepted: {x!r}")
    return Fraction(x)


def json_array(x):
    """x for a JSON array; TypeError for any other value.

    A string or an object is iterable too, so without this check "23" would
    be read as the items 2 and 3 and {"1": 0} as its key.  A scalar gets the
    message that iterating it gives.
    """
    if type(x) is list:
        return x
    if isinstance(x, (str, dict)):
        raise TypeError(f"expected an array, not {type(x).__name__}")
    raise TypeError(f"{type(x).__name__!r} object is not iterable")


def json_matrix(x) -> IntMatrix:
    """The integer matrix of a JSON array of rows."""
    return IntMatrix.from_rows([[json_number(v) for v in json_array(r)] for r in json_array(x)])


def json_embedding_data(x):
    """The embedding data of a JSON object; the data check themselves when built."""
    labels, conj, cm_labels, restrict, cm_conj, mode = (
        x[k] for k in ("labels", "conj", "cm_labels", "restrict", "cm_conj", "mode"))
    if any(type(d) is not dict for d in (conj, restrict, cm_conj)):
        raise TypeError("conj, restrict and cm_conj must be objects")
    labels, cm_labels = json_array(labels), json_array(cm_labels)
    # the data hash and compare labels, so each must be a string
    names = [*labels, *cm_labels, mode]
    for d in (conj, restrict, cm_conj):
        names += [*d, *d.values()]
    if any(type(v) is not str for v in names):
        raise TypeError("labels and mode must be strings")
    return cmdata.CMEmbeddingData.make(labels, conj, cm_labels, restrict, cm_conj, mode)


def json_gram(x):
    """The quadratic form of a JSON Gram matrix, each entry parsed once.

    A JSON integer is handed over as the int it is.  A Gram file repeats
    few distinct strings, so each distinct string is parsed once, to an int
    when its value is integral and to a Fraction otherwise, which its
    repeats share.
    """
    parsed = {}

    def entry(v):
        if type(v) is not str:
            return json_number(v)
        f = parsed.get(v)
        if f is None:
            f = rational(v)
            f = parsed[v] = f.numerator if f.denominator == 1 else f
        return f

    return qforms.QForm.from_gram([[entry(v) for v in json_array(r)] for r in json_array(x)])


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


def _printable(n: int, what: str) -> int:
    """n, or BoundError when n has more digits than an int may be printed with."""
    try:
        str(n)
    except ValueError:
        raise BoundError(f"{what} has more than {sys.get_int_max_str_digits()} digits") from None
    return n


def _cqd_from_args(args):
    rd = rootdata.datum_by_name(args.group)
    if args.tilde_embed:
        with _payload(args.command, args.tilde_embed) as payload:
            embed = json_matrix(payload)
    elif args.tilde == "gm":
        embed = rootdata.gm_embed(rd)
    else:
        embed = rootdata.minimal_torus_embed(rd)
    return rootdata.central_quotient_data(rd, embed)


def cmd_lift_check(args):
    cqd = _cqd_from_args(args)
    with _payload("lift-check", args.hodge) as payload:
        data = json_embedding_data(payload["cm"])
        h = lifting.HodgeFamily.make(data, {l: tuple(json_number(x) for x in json_array(v))
                                            for l, v in payload["mu"].items()})
    mode = "totally_real" if args.mode == "totally-real" else "imaginary"
    rep = lifting.geometric_lift_exists(cqd, h, mode)
    return ({**rep.to_json(), "check": "central-quotient-lift", "seed": args.seed},
            EXIT_OK if rep.decision == "lift_exists" else EXIT_VERIFICATION)


def cmd_param_lift(args):
    cqd = _cqd_from_args(args)
    pairs = {}
    with _payload("param-lift", args.params) as payload:
        for label, pv in payload["pairs"].items():
            mu = [json_number(x, rational) for x in json_array(pv["mu"])]
            nu = [json_number(x, rational) for x in json_array(pv["nu"])]
            pairs[label] = lifting.ParameterPair.make(mu, nu)
    recipe = "cm_typeA" if args.recipe == "cm-typeA" else "finite_order"
    rep = lifting.lift_archimedean_parameter(cqd, pairs, recipe,
                                             tempered=not args.non_tempered)
    return {**rep.to_json(), "check": "archimedean-parameter-lift", "seed": args.seed}, EXIT_OK


def cmd_classify(args):
    rows = lifting.classify_simple_types(args.max_rank)
    out = {
        "check": "simple-type-table",
        "seed": args.seed,
        "table": [r.to_json() for r in rows],
    }
    return out, EXIT_OK


def cmd_torus_lift(args):
    with _payload("torus-lift", args.input) as payload:
        Q = json_matrix(payload["quotient"])
        lam = tuple(json_number(x) for x in json_array(payload["cocharacter"]))
    lift = torus_lift(Q, lam)
    witness = None if lift is None else [_printable(x, "a witness entry") for x in lift]
    out = {
        "check": "torus-cocharacter-lift",
        "seed": args.seed,
        "lift_exists": lift is not None,
        "witness": witness,
    }
    return out, EXIT_OK if lift is not None else EXIT_VERIFICATION


def cmd_hecke(args):
    with _payload("hecke-feasible", args.input) as payload:
        data = json_embedding_data(payload["cm"])
        n, m = json_number(payload["n"]), {l: json_number(v) for l, v in payload["m"].items()}
        grunwald_wang = payload.get("grunwald_wang", False)
        if type(grunwald_wang) is not bool:
            raise TypeError(f"grunwald_wang must be true or false, not {grunwald_wang!r}")
    res = cmdata.hecke_extension_feasible(data, n, m)
    note = "Grunwald-Wang special case flagged by caller" if grunwald_wang else ""
    out = {"check": "hecke-extension", "seed": args.seed,
           "typeA": res.typeA, "finite_order": res.finite_order, "annotation": note}
    return out, EXIT_OK


def cmd_galchar(args):
    with _payload("galois-char-feasible", args.input) as payload:
        data = json_embedding_data(payload["cm"])
        n, k = json_number(payload["n"]), {l: json_number(v) for l, v in payload["k"].items()}
    res = cmdata.galois_char_feasible(data, n, k)
    out = {"check": "fractional-weight-character", "seed": args.seed,
           "feasible": res is not None}
    if res is not None:
        out["purity_weight"] = res.purity_weight
        out["witness"] = {l: str(w) for l, w in res.weights.items()}
    return out, EXIT_OK if res is not None else EXIT_VERIFICATION


def cmd_spin_weights(args):
    ms = weights.spin_weight_multiset(args.n, args.family, args.half)
    out = {"check": "spin-weights", "seed": args.seed,
           "dimension": ms.dimension,
           # every coordinate is +-1/2, so its doubled value is the numerator
           "weights": [{"weight": [f"{x}/2" for x in w], "multiplicity": m}
                       for w, m in ms.doubled]}
    return out, EXIT_OK


def _parse_branch_target(to: str):
    try:
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
    except ValueError:
        pass  # a malformed number or split gets the same message as an unknown form
    raise InputError(f"cannot parse branch target {to!r}")


def cmd_branch(args):
    kind, c, d = _parse_branch_target(args.to)
    if kind == "pair":
        rep = weights.verify_spin_factorization(c, d)
        expected_from = f"so{c + d}"
    elif kind == "so":
        rep = weights.verify_spin_branching(c, d)
        expected_from = f"so{c * d}"
    else:
        rep = weights.verify_spin_branching(c, 2 * d, variant="gl")
        expected_from = f"so{2 * c * d}"
    if args.source and args.source != expected_from:
        raise InputError(f"target {args.to!r} lives inside {expected_from}, not {args.source!r}")
    return ({**rep.to_json(), "check": "spin-branching", "seed": args.seed},
            EXIT_OK if rep.ok else EXIT_VERIFICATION)


def cmd_plethysm(args):
    rep = weights.verify_plethysm(args.g)
    return ({**rep.to_json(), "check": "exterior-algebra-plethysm", "seed": args.seed},
            EXIT_OK if rep.ok else EXIT_VERIFICATION)


def cmd_dim(args):
    rd = rootdata.datum_by_name(args.group)
    try:
        lam = [rational(x) for x in args.weight.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse weight {args.weight!r}: {exc}") from exc
    out = {"check": "weyl-dimension", "seed": args.seed,
           "group": args.group, "weight": [str(x) for x in lam],
           "dimension": _printable(weights.weyl_dimension(rd, lam), "the dimension")}
    return out, EXIT_OK


def cmd_qform(args):
    with _payload("Gram matrix", args.gram) as payload:
        q = json_gram(payload)
    inv = qforms.invariants(q)
    return {**inv.to_json(), "check": "quadratic-form-invariants", "seed": args.seed}, EXIT_OK


def cmd_clifford(args):
    if args.builtin == "k3":
        q = qforms.k3_primitive(args.q_eta)
    elif args.gram:
        with _payload("Gram matrix", args.gram) as payload:
            q = json_gram(payload)
    else:
        raise InputError("provide --builtin k3 or a Gram matrix file")
    res = qforms.even_clifford_split(q)
    return {**res.to_json(), "check": "even-clifford-splitness", "seed": args.seed}, EXIT_OK


def cmd_heisenberg(args):
    r1 = heisenberg.rep_rho(args.n, args.alpha)
    r2 = heisenberg.rep_rho(args.n, args.beta)
    same, _ = heisenberg.elementwise_projective_conjugate(r1, r2)
    twist = heisenberg.globally_twist_equivalent(r1, r2)
    def fmt_det(d):
        sign, e = d
        s = "" if sign > 0 else "-"
        return f"{s}zeta^{e}"
    out = {
        "check": "heisenberg-local-global",
        "seed": args.seed,
        "n": args.n,
        "alpha": args.alpha,
        "beta": args.beta,
        "elementwise_projectively_conjugate": same,
        "globally_twist_equivalent": twist,
        "determinants_alpha": {k: fmt_det(v)
                               for k, v in heisenberg.rep_determinant(r1).items()},
        "determinants_beta": {k: fmt_det(v)
                              for k, v in heisenberg.rep_determinant(r2).items()},
    }
    return out, EXIT_OK


def cmd_verify(args):
    if args.check is not None:
        results = [acceptance.run_check(args.check, args.seed)]
    else:
        results = acceptance.run_all(args.seed)
    rows = [r.to_json() for r in results]
    ok = all(r.ok for r in results)
    within = all(r.elapsed <= r.budget for r in results)
    out = {"check": "verify-all", "seed": args.seed, "all_pass": ok,
           "within_budgets": within, "results": rows}
    return out, EXIT_OK if ok else EXIT_VERIFICATION


class _Parser(argparse.ArgumentParser):
    """Report an argument error as InputError, so that it gets one stderr line and exit 2."""

    def error(self, message):
        raise InputError(message)


def build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")
    common.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
    datum = _Parser(add_help=False)
    datum.add_argument("--group", required=True)
    datum.add_argument("--tilde", choices=("gm", "minimal"), default="minimal")
    datum.add_argument("--tilde-embed", help="JSON file with an explicit embedding matrix")
    p = _Parser(
        prog="liftcalc",
        description="Exact computations with root data, lifting obstructions, "
                    "spin branching, quadratic forms, and Heisenberg representations.")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("lift-check", parents=[common, datum],
                       help="decide geometric liftability of a weight family")
    s.add_argument("--mode", choices=("totally-real", "imaginary"), required=True)
    s.add_argument("--hodge", required=True, help="JSON file with cm data and mu")
    s.set_defaults(func=cmd_lift_check)

    s = sub.add_parser("param-lift", parents=[common, datum], help="lift archimedean parameters")
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
    s.set_defaults(func=cmd_branch)

    s = sub.add_parser("plethysm-check", parents=[common], help="exterior algebra identity")
    s.add_argument("--g", type=int, required=True)
    s.set_defaults(func=cmd_plethysm)

    s = sub.add_parser("dim", parents=[common], help="Weyl dimension of a highest weight")
    s.add_argument("--group", required=True)
    s.add_argument("--weight", required=True,
                   help="comma-separated, e.g. 2,1,0; write a leading minus as "
                        "--weight=-1,0,0, since argparse reads -1,0,0 as an option")
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

    s = sub.add_parser(
        "verify-paper", parents=[common], help="run the full acceptance suite",
        description="Run the named acceptance checks.  The exit status depends only on "
                    "the pass flags: 0 when every check passes, 1 otherwise.  Time budgets "
                    "depend on the hardware, so an overrun shows only as "
                    "\"within_budgets\": false in the report.")
    s.add_argument("--check", help="run a single named check")
    s.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            report, code = args.func(args)
            _emit(report, args.format)
            return code
        finally:
            # a pipe's reader may be gone already; find out here, not at shutdown
            sys.stdout.flush()
    except BoundError as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # stdout closed before the report was written (``| head -1``); point
        # it at devnull so the flush at interpreter shutdown stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
