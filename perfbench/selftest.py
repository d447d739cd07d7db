"""Self-test of the benchmark's checks: planted wrong answers must be caught.

    python3 perfbench/selftest.py

Each plant takes a real answer from the program, corrupts it, and feeds
it through ``Recorder.op`` with the check the workload uses.  The plant
passes when the run counts it as a failed operation and, for a wrong
answer, marks the run incorrect.  The unmodified answers must pass the
same checks.  Exits 1 if anything is not as expected.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

from liftcalc.heisenberg import globally_twist_equivalent, rep_rho  # noqa: E402
from liftcalc.intmat import IntMatrix, torus_lift  # noqa: E402
from liftcalc.lifting import classify_simple_types  # noqa: E402
from liftcalc.qforms import QForm, invariants  # noqa: E402
from liftcalc.rootdata import sp_datum  # noqa: E402
from liftcalc.weights import WeightMultiset, irrep_weight_multiset  # noqa: E402

import heisenberg_qforms as HQ  # noqa: E402
import lattice_lifting as LL  # noqa: E402
import oracles as O  # noqa: E402
import paper_checks as PC  # noqa: E402
import weights_branching as WB  # noqa: E402
from harness import Recorder  # noqa: E402
from speed import Sampler  # noqa: E402


def cli_answer(payload, code=0, stderr=""):
    return subprocess.CompletedProcess([], code, json.dumps(payload), stderr)


def plants():
    """(name, true answer, planted answer, check, planted answer is a wrong answer)."""
    out = []

    rows = [[2, 3, -4]]
    lam = (5,)
    x = torus_lift(IntMatrix.from_rows(rows), lam)
    out.append(("lift that does not compose back", x, (x[0] + 1,) + x[1:],
                LL.lift_check(rows, lam, True), True))
    out.append(("lift missed where one exists", x, None, LL.lift_check(rows, lam, True), True))

    table = classify_simple_types(4)
    flipped = list(table)
    flipped[4] = dataclasses.replace(flipped[4],
                                     obstruction_possible=not flipped[4].obstruction_possible)
    out.append(("simple-type row with a flipped obstruction flag", table, flipped,
                LL.check_classify(4), True))

    lam2 = (2, 1)
    ms = irrep_weight_multiset(sp_datum(2), lam2)
    items = list(ms.doubled)
    w, m = items[len(items) // 2]
    items[len(items) // 2] = (w, m + 1)
    out.append(("multiset with one multiplicity changed", ms, WeightMultiset(2, tuple(items)),
                WB.check_irrep(lam2), True))
    table = dict(ms.doubled)
    once = next(w for w, m in ms.doubled if m == 1)
    more = next(w for w, m in ms.doubled if m > 1)
    table[once], table[more] = table[more], table[once]
    out.append(("multiset with two multiplicities swapped, total kept", ms,
                WeightMultiset(2, tuple(sorted(table.items()))), WB.check_irrep(lam2), True))

    gram = [[2, 1, 0], [1, -4, 3], [0, 3, 6]]
    inv = invariants(QForm.from_gram(gram))
    place = next(iter(inv.hasse))
    hasse = dict(inv.hasse)
    hasse[place] = -hasse[place]
    bad = dataclasses.replace(inv, hasse=hasse)
    out.append(("flipped Hasse symbol", (inv, inv), (inv, bad), HQ.check_invariants(gram), True))
    cli_good = cli_answer(inv.to_json())
    cli_bad = cli_answer(bad.to_json())
    out.append(("flipped Hasse symbol in qform-invariants output", cli_good, cli_bad,
                PC.check_qform(gram), True))

    a, b, place = 6, -10, 3
    places = O.hilbert_places(a, b)
    symbols = HQ.hilbert_symbols(a, b, place, places)
    table = dict(symbols[0])
    ab, ba = table[5]
    table[5] = (-ab, -ba)
    out.append(("Hilbert symbol flipped in both orders", symbols, (table, symbols[1]),
                HQ.check_hilbert(a, b, place), True))

    n, a, b = 5, 1, 2
    twist = globally_twist_equivalent(rep_rho(n, a), rep_rho(n, b))
    check_twist = (lambda t: HQ.expect(t == (a == b), "twist verdict"))
    out.append(("inverted twist verdict", twist, not twist, check_twist, True))
    out.append(("inverted twist verdict in heisenberg-demo output",
                cli_answer({"elementwise_projectively_conjugate": True,
                            "globally_twist_equivalent": False,
                            "determinants_alpha": {"A": "zeta^0", "B": "zeta^0", "Z": "zeta^0"},
                            "determinants_beta": {"A": "zeta^0", "B": "zeta^0", "Z": "zeta^0"}}),
                cli_answer({"elementwise_projectively_conjugate": True,
                            "globally_twist_equivalent": True,
                            "determinants_alpha": {"A": "zeta^0", "B": "zeta^0", "Z": "zeta^0"},
                            "determinants_beta": {"A": "zeta^0", "B": "zeta^0", "Z": "zeta^0"}}),
                PC.check_heisenberg, True))

    good = cli_answer({"check": "torus-cocharacter-lift", "lift_exists": True, "witness": [2, -1]})
    bad = copy.deepcopy(good)
    bad.stdout = json.dumps({"check": "torus-cocharacter-lift", "lift_exists": True,
                             "witness": [2, 0]})
    out.append(("torus-lift witness that does not compose back", good, bad,
                PC.check_torus([2, 3], 1), True))
    verify = {"results": [{"check": f"c{i}", "pass": True} for i in range(14)]}
    failing = copy.deepcopy(verify)
    failing["results"][3]["pass"] = False
    out.append(("verify-paper with one failing check", cli_answer(verify), cli_answer(failing),
                PC.check_verify, True))
    out.append(("verify-paper with one failing check, exit 1 also on a budget overrun",
                cli_answer(verify, 1), cli_answer(failing, 1), PC.check_verify, True))
    out.append(("payload without mu that dies with a traceback",
                cli_answer({}, 2, "input error: weight family lacks 'mu'\n"),
                cli_answer({}, 1, "Traceback (most recent call last):\nKeyError: 'mu'\n"),
                PC.check_no_mu, False))
    return out


def main():
    ok = True
    for name, truth, planted, check, wrong in plants():
        rec = Recorder(Sampler())
        rec.start_round()
        rec.op(name, lambda: truth, check)
        clean = rec.failed == 0 and rec.correct
        rec.op(name, lambda: planted, check)
        caught = rec.failed == 1 and rec.correct == (not wrong)
        print(f"{'ok  ' if clean and caught else 'FAIL'} {name}: true answer "
              f"{'passes' if clean else 'is rejected'}, plant "
              f"{'caught' if caught else 'missed'}")
        ok = ok and clean and caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
