"""Workload ``paper-checks``: the path users take, one CLI process per call.

Layers: acceptance, cli.  ``verify-paper`` runs in a fresh process, and
so does each README example, with input JSON generated here from the
seed.  Every process starts with cold caches and imports the program
again, so interpreter start-up, imports and any work moved into import
time show up here and nowhere else.

One operation fails on purpose: ``lift-check`` with a payload that lacks
``"mu"``.  It should exit 2 with a one-line error; it dies with a
``KeyError`` traceback instead and is counted as failed until it does.
"""
from __future__ import annotations

import json
import os
import subprocess
from fractions import Fraction
from math import prod

import liftcalc.cli  # noqa: F401  (set-up imports what each CLI process imports)

import oracles as O
from harness import Failed, expect

NAME = "paper-checks"

CLI_TIMEOUT_S = 120
EXIT_CODES = (0, 1, 2, 3)
RUNS_CHILDREN = True        # operations run in CLI processes, not in this one


def _totally_real(k):
    labels = [f"v{i}" for i in range(k)]
    ident = {l: l for l in labels}
    return {"labels": labels, "conj": ident, "cm_labels": labels,
            "restrict": dict(ident), "cm_conj": dict(ident), "mode": "totally_real"}


def make_inputs(rng, ctx):
    k = rng.randint(2, 4)
    mu = {f"v{i}": [rng.randint(-6, 6), rng.randint(-6, 6)] for i in range(k)}
    halves = {f"v{i}": Fraction(rng.randint(-8, 8), 2) for i in range(rng.randint(2, 4))}
    row = [0, 0]
    while not any(row):
        row = [rng.randint(-12, 12), rng.randint(-12, 12)]
    lam = rng.randint(-30, 30)
    n = rng.randint(2, 5)
    a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    gram = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
    while O.det(gram) == 0:
        gram[0][0] += 1
    payloads = {
        "hodge.json": {"cm": _totally_real(k), "mu": mu},
        "params.json": {"pairs": {l: {"mu": [str(h)], "nu": [str(-h)]}
                                  for l, h in halves.items()}},
        "input.json": {"quotient": [[str(x) for x in row]], "cocharacter": [lam]},
        "gram.json": [[str(x) for x in r] for r in gram],
        "nomu.json": {"cm": _totally_real(k)},
    }
    files = {}
    for name, payload in payloads.items():
        files[name] = os.path.join(ctx.workdir, name)
        with open(files[name], "w") as fh:
            json.dump(payload, fh)
    return {"files": files, "mu": mu, "halves": halves, "row": row, "lam": lam,
            "gram": gram, "calls": 0}


# ---------------------------------------------------------------------------
# checks of CLI output


def _answer(proc, codes=(0,)):
    """The JSON report of a CLI call that answered; Failed if it gave no answer."""
    if proc.returncode not in EXIT_CODES or "Traceback" in proc.stderr:
        raise Failed(f"exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}")
    expect(proc.returncode in codes, f"exit code {proc.returncode}, want {codes}")
    return json.loads(proc.stdout)


def check_classify(proc):
    rows = _answer(proc)["table"]
    want = O.simple_types(8)
    expect([r["type"] for r in rows] == [f"{f}{n}" for f, n in want], "type list differs")
    for r, (f, n) in zip(rows, want):
        got = (prod(r["d"]), r["obstruction_possible"], r["automorphic_counterexample"])
        expect(got == O.simple_type_row(f, n), f"{r['type']}: {got}")


def check_lift(mu):
    lifts = len({sum(v) % 2 for v in mu.values()}) == 1

    def check(proc):
        out = _answer(proc, (0,) if lifts else (1,))
        expect((out["decision"] == "lift_exists") == lifts,
               f"parity oracle says {lifts}, CLI says {out['decision']}")
    return check


def check_params(halves):
    l_lift = len({int(2 * h) % 2 for h in halves.values()}) == 1

    def check(proc):
        out = _answer(proc)
        expect(out["l_lift_exists"] == l_lift, f"integral lift verdict wrong on {halves}")
        expect(out["w_lift_exists"], "half-integral parameters must W-lift")
    return check


def check_torus(row, lam):
    exists = O.lift_exists_row(row, lam)

    def check(proc):
        out = _answer(proc, (0,) if exists else (1,))
        expect(out["lift_exists"] == exists, f"gcd{tuple(row)} | {lam} is {exists}")
        if exists:
            x = out["witness"]
            expect(row[0] * x[0] + row[1] * x[1] == lam, f"witness {x} does not compose back")
    return check


def check_dim(proc):
    expect(_answer(proc)["dimension"] == O.sp_weyl_dimension((2, 1, 0)) == 64, "dim C3 (2,1,0)")


def check_spin(proc):
    out = _answer(proc)
    expect(out["dimension"] == 16 and len(out["weights"]) == 16, "spin D4 dimension")
    expect(all(r["multiplicity"] == 1 and all(w in ("1/2", "-1/2") for w in r["weight"])
               for r in out["weights"]), "spin D4 weights are not (+-1/2)^4")


def check_pass(dim):
    def check(proc):
        out = _answer(proc)
        expect(out["pass"] and out["lhs_dim"] == out["rhs_dim"] == dim,
               f"pass={out['pass']}, dims {out['lhs_dim']}, {out['rhs_dim']}, want {dim}")
    return check


def check_qform(gram):
    sig = O.signature(gram)
    det = O.det(gram)

    def check(proc):
        out = _answer(proc)
        expect(tuple(out["signature"]) == sig, f"signature {out['signature']}, want {sig}")
        expect(O.is_rational_square(Fraction(out["discriminant"]) * det),
               f"discriminant {out['discriminant']} times det {det} is not a square")
        product = 1
        for s in out["hasse"].values():
            product *= s
        expect(product == 1, "Hasse symbols break the product formula")
    return check


def check_clifford(proc):
    out = _answer(proc)
    expect(out["split"] and out["matrix_size"] == 2 ** 10, f"K3 even Clifford algebra: {out}")


def check_heisenberg(proc):
    out = _answer(proc)
    expect(out["elementwise_projectively_conjugate"], "units 1, 2 mod 5 not element-wise conjugate")
    expect(not out["globally_twist_equivalent"], "units 1, 2 mod 5 twist-equivalent")
    for key, alpha in (("determinants_alpha", 1), ("determinants_beta", 2)):
        want = O.heisenberg_determinants(5, alpha)
        expect(out[key] == {k: ("" if s > 0 else "-") + f"zeta^{e}" for k, (s, e) in want.items()},
               f"{key}: {out[key]}")


def check_verify(proc):
    # exit 1 (verification) is accepted when every check passes, so that a
    # verify-paper that also fails on wall-clock budget overruns is not marked
    # wrong: budgets depend on the machine; only the pass flags are judged
    out = _answer(proc, (0, 1))
    bad = [r["check"] for r in out["results"] if not r["pass"]]
    expect(not bad and len(out["results"]) == 14, f"verify-paper checks failed: {bad}")


def check_no_mu(proc):
    lines = proc.stderr.strip().splitlines()
    if proc.returncode != 2 or len(lines) != 1 or "mu" not in lines[0]:
        raise Failed(f"payload without mu: exit {proc.returncode}, "
                     f"{len(lines)} lines on stderr")


def examples(inp):
    """(metric name, CLI arguments, check) for each call of a round."""
    f = inp["files"]
    return [
        ("verify-paper", ["verify-paper"], check_verify),
        ("classify-simple-types", ["classify-simple-types", "--max-rank", "8"], check_classify),
        ("lift-check", ["lift-check", "--group", "C2.sc", "--tilde", "gm",
                        "--mode", "totally-real", "--hodge", f["hodge.json"]],
         check_lift(inp["mu"])),
        ("param-lift", ["param-lift", "--group", "A1.sc", "--tilde", "gm",
                        "--recipe", "finite-order", f["params.json"]],
         check_params(inp["halves"])),
        ("torus-lift", ["torus-lift", f["input.json"]], check_torus(inp["row"], inp["lam"])),
        ("dim", ["dim", "--group", "C3.sc", "--weight", "2,1,0"], check_dim),
        ("spin-weights", ["spin-weights", "--n", "4", "--family", "D", "--half", "both"],
         check_spin),
        ("branch", ["branch", "--from", "so9", "--to", "so3^3"], check_pass(2 ** 4)),
        ("branch", ["branch", "--to", "so2*so3"], check_pass(2 ** 2)),
        ("branch", ["branch", "--to", "gl2^2"], check_pass(2 ** 3)),
        ("plethysm-check", ["plethysm-check", "--g", "3"], check_pass(2 ** 15)),
        ("qform-invariants", ["qform-invariants", f["gram.json"]], check_qform(inp["gram"])),
        ("clifford-split", ["clifford-split", "--builtin", "k3", "--q-eta", "2"],
         check_clifford),
        ("heisenberg-demo", ["heisenberg-demo", "--n", "5", "--alpha", "1", "--beta", "2"],
         check_heisenberg),
        ("lift-check-no-mu", ["lift-check", "--group", "C2.sc", "--tilde", "gm",
                              "--mode", "totally-real", "--hodge", f["nomu.json"]],
         check_no_mu),
    ]


def run_cli(ctx, argv, trace_out=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ctx.root, "src")
    if trace_out is None:
        cmd = [ctx.python, "-m", "liftcalc.cli", *argv]
    else:
        cmd = [ctx.python, ctx.worker, "cli", "--trace-out", trace_out, "--", *argv]
    return subprocess.run(cmd, env=env, cwd=ctx.root, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)


def run_round(rec, inp, ctx):
    for name, argv, check in examples(inp):
        trace_out = None
        if ctx.trace_dir:
            inp["calls"] += 1
            trace_out = os.path.join(ctx.trace_dir, f"cli-{inp['calls']}.spans")
        rec.op(name, lambda: run_cli(ctx, argv, trace_out), check)
