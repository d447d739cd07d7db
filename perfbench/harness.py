"""Operation runner shared by every workload.

An operation is one call into the program, timed on its own, followed by
a check of its answer.  The check runs outside the timed region and uses
only the benchmark's own code (see ``oracles.py``) or properties the
answer must have.

Two kinds of failure are counted apart:

* ``Failed`` -- the operation did not produce an answer (an exception, a
  traceback, an exit code outside the documented set).  It counts in
  ``failed`` and leaves ``correct`` alone.
* ``Mismatch`` -- the operation produced a wrong answer.  It counts in
  ``failed`` and makes ``correct`` false.
"""
from __future__ import annotations

import sys
import time
from array import array

from speed import scale

# each workload's name and the module that holds its inputs and its round
WORKLOADS = {
    "lattice-lifting": "lattice_lifting",
    "weights-branching": "weights_branching",
    "heisenberg-qforms": "heisenberg_qforms",
    "paper-checks": "paper_checks",
}


class Mismatch(Exception):
    """The program answered, and the answer is wrong."""


class Failed(Exception):
    """The program gave no answer."""


def expect(cond, msg):
    if not cond:
        raise Mismatch(msg)


class Recorder:
    """Counts operations and keeps the time of each one, round by round.

    With a ``speed.Sampler`` running, the time the sampler takes inside an
    operation is taken off that operation.  With ``between_s`` the speed is
    instead sampled for that long before each operation, for operations
    whose work runs in a child process.  Each operation's time is scaled
    to the reference speed by the median of the samples taken during it
    and the ``WINDOW`` samples on either side.
    """

    WINDOW = 25

    def __init__(self, sampler, tracer=None, between_s=0.0):
        self.sampler = sampler
        self.between_s = between_s
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []          # first few failure messages, for stderr
        self.names = []             # op names of the first round, in order
        self.rounds = []            # per round: array of op wall seconds, in order
        self.spans = []             # per round: first and end sample index of each op, flat
        self._cur = None

    def start_round(self):
        self._cur = array("d")
        self.rounds.append(self._cur)
        self.spans.append(array("q"))

    def _time(self, name, t0, spent0, first):
        if len(self.rounds) == 1:
            self.names.append(name)
        wall = (time.perf_counter_ns() - t0) / 1e9
        self._cur.append(wall - (self.sampler.spent - spent0))
        self.spans[-1].extend((first, len(self.sampler.samples)))

    def _note(self, kind, name, exc):
        if len(self.problems) < 10:
            self.problems.append(f"{kind} {name}: {type(exc).__name__}: {exc}")

    def op(self, name, fn, check=None):
        """Run ``fn`` as one operation; ``check(result)`` judges its answer.

        Returns the result, or None when the operation failed.
        """
        self.attempted += 1
        if self.between_s:
            self.sampler.measure(self.between_s)
        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = True
        spent0 = self.sampler.spent
        first = len(self.sampler.samples)
        t0 = time.perf_counter_ns()
        try:
            result = fn()
        except Exception as exc:  # the program raised: no answer
            self._time(name, t0, spent0, first)
            self.failed += 1
            self._note("failed", name, exc)
            return None
        finally:
            if tracer is not None:
                tracer.enabled = False
        self._time(name, t0, spent0, first)
        if check is not None:
            try:
                check(result)
            except Failed as exc:
                self.failed += 1
                self._note("failed", name, exc)
                return None
            except Exception as exc:  # Mismatch, or an answer too malformed to check
                self.failed += 1
                self.correct = False
                self._note("wrong", name, exc)
                return None
        return result

    def scaled_rounds(self):
        """Per round, each operation's time at the reference speed."""
        samples = self.sampler.samples
        out = []
        for walls, spans in zip(self.rounds, self.spans):
            bounds = zip(spans[::2], spans[1::2])
            out.append([scale(w, median(samples[max(0, a - self.WINDOW):b + self.WINDOW]))
                        for w, (a, b) in zip(walls, bounds)])
        return out

    def wall_round_seconds(self):
        return [sum(r) for r in self.rounds]

    def round_seconds(self):
        return [sum(r) for r in self.scaled_rounds()]

    def _position_medians(self):
        rounds = self.scaled_rounds()
        return [median([r[i] for r in rounds]) for i in range(len(self.names))]

    def max_op_seconds(self):
        """The slowest operation at the reference speed: per position, median over rounds."""
        return max(self._position_medians())

    def op_medians(self):
        """Per operation name, the sum of its positions' medians over rounds (reference speed)."""
        out = {}
        for name, t in zip(self.names, self._position_medians()):
            out[name] = out.get(name, 0.0) + t
        return out

    def report_problems(self):
        for line in self.problems:
            print(line, file=sys.stderr)


def median(values):
    values = sorted(values)
    n = len(values)
    mid = n // 2
    return values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2


def clear_program_caches():
    """Empty every module-level cache of the program.

    Each round then starts as a fresh CLI invocation does: module dicts
    named ``*_CACHE`` are cleared, and so is every ``functools`` cache
    bound at module level.
    """
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("liftcalc") or mod is None:
            continue
        for attr, value in vars(mod).items():
            if attr.endswith("_CACHE") and isinstance(value, dict):
                value.clear()
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()
