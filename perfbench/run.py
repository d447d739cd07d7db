"""Benchmark of liftcalc: four workloads, end-to-end times and per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones:

    setup_s       median over fresh processes of the time from process start
                  until liftcalc is imported and the inputs are generated
    run_s         median over rounds of the wall time of a round's operations
    max_op_s      the slowest operation of a round (per operation, the median
                  over rounds)
    peak_rss_mib  peak resident memory of the run's process or its CLI children

With ``--trace 1`` the workload runs once more with the program's public
functions wrapped in spans (see ``tracing.py``), and the metrics are the
per-layer ones.  Spans are written to ``perfbench/out/``.

Load is a closed loop with one caller: each operation starts when the
previous one returns.  Every child process is started from here, in a
process group of its own, and is waited for.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from harness import WORKLOADS, median  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

SETUP_SAMPLES = 7
IMPORT_SAMPLES = 5
DEADLINE_S = 170.0

class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 1:
        raise BenchError("out of time")
    return left


def run_child(cmd, deadline):
    """Run a child in its own process group; kill the group if time runs out."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[2:6])} did not finish in time")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd[2:6])} exited {proc.returncode}")
    return lines[-1]


def measure_setup(args, deadline):
    """Seconds, at the reference speed, from starting a fresh process until it
    has set the workload up.  The process samples the speed right after."""
    cmd = [sys.executable, WORKER, "setup", "--workload", args.workload,
           "--seed", str(args.seed), "--out", OUT]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        if not select.select([proc.stdout], [], [], remaining(deadline))[0]:
            raise BenchError("set-up did not finish in time")
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=remaining(deadline))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up failed (exit {proc.returncode})")
    return speed.scale(elapsed, float(rest))


def run_workload(args, deadline, trace_dir=None):
    cmd = [sys.executable, WORKER, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", OUT]
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    return json.loads(run_child(cmd, deadline))


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, deadline):
    setups = [measure_setup(args, deadline) for _ in range(SETUP_SAMPLES)]
    res = run_workload(args, deadline)
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "run_s": metric(median(res["round_s"]), "s"),
        "max_op_s": metric(res["max_op_s"], "s"),
        "peak_rss_mib": metric(res["peak_rss_mib"], "MiB"),
    }
    return [res], metrics


def layer_metrics(declared, spans, derived, op_s):
    """Each per-layer metric BENCHMARK.json declares, by the form of its name:
    ``<span>.calls``, ``<span>.self_s``, ``acceptance.<check>.s`` (the check's
    span time), ``cli.<subcommand>.s`` (process time), or one of ``derived``."""
    def get(span, key):
        return spans.get(span, {}).get(key, 0)

    m = {}
    for spec in declared:
        name = spec["name"]
        if name in derived:
            value = derived[name]
        elif name.endswith(".calls"):
            value = get(name[:-len(".calls")], "calls")
        elif name.endswith(".self_s"):
            value = get(name[:-len(".self_s")], "self_s")
        elif name.startswith("acceptance.") and name.endswith(".s"):
            value = get(name[:-len(".s")], "total_s")
        elif name.startswith("cli.") and name.endswith(".s"):
            value = op_s.get(name[len("cli."):-len(".s")], 0.0)
        else:
            raise BenchError(f"no source for the per-layer metric {name}")
        m[name] = metric(value, spec["unit"])
    return m


def per_layer(args, deadline):
    res = run_workload(args, deadline)
    trace_dir = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    traced = run_workload(args, deadline, trace_dir)
    imports = [float(run_child([sys.executable, WORKER, "import"], deadline))
               for _ in range(IMPORT_SAMPLES)]

    spans = {}
    snf_in_lift = 0
    counters = {"max_dim": 0, "validated": 0, "weights_out": 0}
    for name in sorted(os.listdir(trace_dir)):
        file_spans, file_counters = tracing.load(os.path.join(trace_dir, name))
        summary, snf = tracing.summarize(file_spans)
        snf_in_lift += snf
        for span, rec in summary.items():
            acc = spans.setdefault(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += rec[k]
        counters["max_dim"] = max(counters["max_dim"], file_counters.get("max_dim", 0))
        counters["validated"] += file_counters.get("validated", 0)
        counters["weights_out"] += file_counters.get("weights_out", 0)

    lifts = spans.get("intmat.torus_lift", {}).get("calls", 0)
    validates = spans.get("rootdata.validate", {}).get("calls", 0)
    derived = {
        "intmat.smith_normal_form.max_dim": counters["max_dim"],
        "intmat.snf_per_torus_lift": snf_in_lift / lifts if lifts else 0.0,
        "rootdata.validate.distinct_data": counters["validated"],
        "rootdata.validate_per_datum":
            validates / counters["validated"] if counters["validated"] else 0.0,
        "weights.irrep_weights_out": counters["weights_out"],
        "cli.import_s": median(imports),
        "trace.overhead_s": median(traced["round_s"]) - median(res["round_s"]),
        "bench.run_wall_s": median(res["wall_round_s"]),
        "bench.reference_s": res["reference_s"],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer"]
    m = layer_metrics(declared, spans, derived, res["op_s"])
    return [res, traced], m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="run whole rounds for about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "liftcalc", "__init__.py")):
        print(f"no liftcalc sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    speed.pin_to_one_cpu()
    try:
        results, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
