"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/figures.py

For each workload, runs ``run.py`` untraced once per seed (seeds 1 to
10), each run as long as ``run_seconds`` in BENCHMARK.json, and prints,
per end-to-end metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the quartile
distance as a share of the median.  Then one traced run on seed 1
prints the per-layer metrics that are not zero.  Raw result lines go to
perfbench/out/figures-<workload>.jsonl.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import WORKLOADS  # noqa: E402

SEEDS = range(1, 11)


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for w in WORKLOADS:
        rows = []
        with open(os.path.join(HERE, "out", f"figures-{w}.jsonl"), "w") as fh:
            for seed in SEEDS:
                rows.append(bench(w, seed, seconds, 0))
                fh.write(json.dumps(rows[-1]) + "\n")
        print(f"\n{w}: {len(rows)} runs, attempted {sorted({r['attempted'] for r in rows})}, "
              f"failed share {sorted({r['failed'] / r['attempted'] for r in rows})}, "
              f"correct {all(r['correct'] for r in rows)}")
        print("| metric | median | q1 | q3 | (q3-q1)/median |")
        print("| --- | --- | --- | --- | --- |")
        for name, rec in rows[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in rows]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            print(f"| {name} ({rec['unit']}) | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med:.3f} |")
        traced = bench(w, 1, seconds, 1)
        print(f"\n{w}, traced (seed 1):")
        for name, rec in traced["metrics"].items():
            if rec["value"]:
                print(f"  {name} = {rec['value']:.6g} {rec['unit']}")


if __name__ == "__main__":
    main()
