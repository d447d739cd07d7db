"""Span tracing of the program's public functions, installed from outside.

``install`` wraps every public function of each ``liftcalc`` module and a
few named methods.  A name bound with ``from .intmat import
smith_normal_form`` is a binding of its own in the importing module, so
every module that holds the original function object gets the wrapper.

Each call made while ``Tracer.enabled`` is true records one span: id,
parent id, name, start and end.  Spans stay in memory until ``dump``.
A layer's self time is its span time minus the time its child spans
cover; child spans of one call never overlap, so that is the sum of
their durations.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("intmat", "rootdata", "cmdata", "lifting", "weights", "qforms",
          "heisenberg", "acceptance", "cli")

# methods traced besides module-level functions: (module, class, method)
METHODS = (("weights", "WeightMultiset", "exterior_power"),)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans = []          # (id, parent id, name, start ns, end ns)
        self.stack = [0]
        self.next_id = 1
        self.max_dim = 0         # largest side of a matrix given to smith_normal_form
        self.validated = set()   # distinct root data given to validate
        self.weights_out = 0     # distinct weights returned by irrep_weight_multiset

    def wrap(self, fn, name, namer=None, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1]
            tracer.stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                tracer.stack.pop()
                tracer.spans.append(
                    (sid, parent, namer(args) if namer else name, t0, t1))
            if note is not None:
                note(args, result)
            return result

        return traced

    # -- per-call counters kept at the layer boundary ---------------------

    def _note_snf(self, args, result):
        A = args[0]
        self.max_dim = max(self.max_dim, A.rows, A.cols)

    def _note_validate(self, args, result):
        rd = args[0]
        self.validated.add((rd.rank, rd.simple_roots, rd.simple_coroots))

    def _note_irrep(self, args, result):
        self.weights_out += len(result.doubled)

    def dump(self, path):
        """Write the spans as JSON lines, plus one line of counters."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, name, t0, t1]) + "\n")
            fh.write(json.dumps({"max_dim": self.max_dim,
                                 "validated": len(self.validated),
                                 "weights_out": self.weights_out}) + "\n")


def install(tracer: Tracer, extra_modules=()):
    """Wrap the program's public functions and rebind them everywhere."""
    import liftcalc  # noqa: F401  (loads every layer)
    import liftcalc.cli  # noqa: F401

    notes = {
        "intmat.smith_normal_form": tracer._note_snf,
        "rootdata.validate": tracer._note_validate,
        "weights.irrep_weight_multiset": tracer._note_irrep,
    }
    namers = {
        "acceptance.run_check": lambda args: f"acceptance.{args[0]}",
    }
    replace = {}
    for layer in LAYERS:
        mod = sys.modules[f"liftcalc.{layer}"]
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            replace[id(value)] = (value, tracer.wrap(
                value, name, namers.get(name), notes.get(name)))
    owners = [m for n, m in sys.modules.items()
              if m is not None and n.startswith("liftcalc")]
    owners += list(extra_modules)
    for mod in owners:
        for attr, value in list(vars(mod).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    for layer, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"liftcalc.{layer}"], cls_name)
        fn = getattr(cls, meth)
        setattr(cls, meth, tracer.wrap(fn, f"{layer}.{cls_name}.{meth}"))


def load(path):
    """Read a span file back: (spans, counters)."""
    spans = []
    counters = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if isinstance(rec, dict):
                counters = rec
            else:
                spans.append(tuple(rec))
    return spans, counters


def summarize(spans):
    """Per span name: calls, total seconds and self seconds.

    Also counts the Smith forms computed inside ``torus_lift``.
    """
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for sid, parent, name, t0, t1 in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0) + (t1 - t0)
    out = {}
    for sid, parent, name, t0, t1 in spans:
        rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["total_s"] += (t1 - t0) / 1e9
        rec["self_s"] += (t1 - t0 - child_time.get(sid, 0)) / 1e9
    snf_in_lift = 0
    for sid, parent, name, t0, t1 in spans:
        if name != "intmat.smith_normal_form":
            continue
        p = parent
        while p:
            anc = by_id[p]
            if anc[2] == "intmat.torus_lift":
                snf_in_lift += 1
                break
            p = anc[1]
    return out, snf_in_lift
