"""Child processes of the benchmark; ``run.py`` starts every one of them.

    worker.py setup  --workload W --seed N
        Import liftcalc, generate the workload's inputs, print "ready";
        then sample the machine's speed for a moment and print the median
        time of the reference computation.
    worker.py run    --workload W --seed N --seconds T [--trace-dir D]
        Set up as above, then run whole rounds for about T seconds and
        print one JSON line of counts and timings.  With --trace-dir the
        program's functions are wrapped, one round runs, and the spans go
        to files in D.
    worker.py import
        Print the seconds that ``import liftcalc.cli`` takes.
    worker.py cli    --trace-out F -- ARGS...
        Run ``liftcalc ARGS`` with tracing on and write its spans to F.

Each round starts with the program's module caches empty, as each CLI
invocation does.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

from harness import WORKLOADS, Recorder, clear_program_caches, median  # noqa: E402
from speed import Sampler  # noqa: E402

SETUP_SPEED_S = 0.1      # how long a set-up process samples the speed after it is ready
CHILD_GAP_S = 0.05       # how long to sample the speed before each CLI child

class Context:
    """What a workload needs to know about where it runs."""

    def __init__(self, workdir, trace_dir=None):
        self.root = ROOT
        self.python = sys.executable
        self.worker = os.path.abspath(__file__)
        self.workdir = workdir          # scratch space for generated input files
        self.trace_dir = trace_dir      # CLI children write span files here when set


def setup(workload, seed, ctx):
    """Everything ``setup_s`` measures: imports and input generation."""
    import importlib

    import liftcalc  # noqa: F401
    mod = importlib.import_module(WORKLOADS[workload])
    rng = random.Random(f"{workload}:{seed}")
    return mod, mod.make_inputs(rng, ctx)


def peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cmd_setup(args):
    workdir = tempfile.mkdtemp(prefix="setup-", dir=args.out)
    try:
        setup(args.workload, args.seed, Context(workdir))
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sampler = Sampler()
    sampler.measure(SETUP_SPEED_S)
    print(median(sampler.samples), flush=True)


def cmd_run(args):
    workdir = tempfile.mkdtemp(prefix="run-", dir=args.out)
    try:
        ctx = Context(workdir, args.trace_dir)
        mod, inputs = setup(args.workload, args.seed, ctx)
        tracer = None
        if args.trace_dir:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer, extra_modules=[mod])
        sampler = Sampler()
        # a CLI child would share the CPU with samples taken while it runs
        in_children = getattr(mod, "RUNS_CHILDREN", False)
        rec = Recorder(sampler, tracer, between_s=CHILD_GAP_S if in_children else 0.0)
        start = time.perf_counter()
        longest = 0.0
        if not in_children:
            sampler.start()
        try:
            while True:
                clear_program_caches()
                rec.start_round()
                t0 = time.perf_counter()
                mod.run_round(rec, inputs, ctx)
                longest = max(longest, time.perf_counter() - t0)
                if tracer is not None:
                    break
                if time.perf_counter() - start + longest > args.seconds:
                    break
        finally:
            sampler.stop()
        out = {
            "attempted": rec.attempted,
            "failed": rec.failed,
            "correct": rec.correct,
            "round_s": rec.round_seconds(),
            "wall_round_s": rec.wall_round_seconds(),
            "reference_s": median(sampler.samples),
            "max_op_s": rec.max_op_seconds(),
            "op_s": rec.op_medians(),
            "peak_rss_mib": peak_rss_mib(),
        }
        if tracer is not None:
            path = os.path.join(args.trace_dir, "worker.spans")
            tracer.dump(path)
        rec.report_problems()
        print(json.dumps(out), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def cmd_import(args):
    t0 = time.perf_counter()
    import liftcalc.cli  # noqa: F401
    print(time.perf_counter() - t0, flush=True)


def cmd_cli(args):
    import tracing
    tracer = tracing.Tracer()
    tracing.install(tracer)
    import liftcalc.cli
    tracer.enabled = True
    try:
        code = liftcalc.cli.main(args.argv)
    finally:
        tracer.enabled = False
        tracer.dump(args.trace_out)
    sys.exit(code)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "run"):
        s = sub.add_parser(mode)
        s.add_argument("--workload", choices=WORKLOADS, required=True)
        s.add_argument("--seed", type=int, required=True)
        s.add_argument("--out", required=True, help="directory for scratch files")
        if mode == "run":
            s.add_argument("--seconds", type=float, required=True)
            s.add_argument("--trace-dir")
    sub.add_parser("import")
    s = sub.add_parser("cli")
    s.add_argument("--trace-out", required=True)
    s.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args()
    if getattr(args, "out", None):
        args.out = os.path.abspath(args.out)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    {"setup": cmd_setup, "run": cmd_run, "import": cmd_import, "cli": cmd_cli}[args.mode](args)


if __name__ == "__main__":
    main()
