"""The machine's speed, sampled while the benchmark runs.

The speed of the shared virtual machines this benchmark was built on
drifts: the same pure-Python work measured in 10-second windows varies
by a factor of up to 1.5 within minutes, and the two vCPUs drift apart
(their 1-second speeds correlate at about 0.26).  A bare wall time then
says more about the neighbours than about the program.

``Sampler`` runs a fixed reference computation from a SIGALRM handler
every ``INTERVAL_S`` seconds, in the process and on the CPU that does the
timed work, and records how long each run of it took.  The time spent in
the handler is counted, so that it can be taken off the wall times it
interrupted.  ``scale`` turns a wall time into the time at the reference
speed, at which the reference computation takes ``NOMINAL_S``.

The program's time does not move one for one with the reference's: when
the machine speeds up, the small reference gains more than the program.
Regressing log time on log reference time gave slopes of 0.61 over 71
rounds of ``lattice-lifting``, 0.68 over 19 rounds of ``heisenberg-qforms``
and about 0.87 for a Freudenthal call, with the reference time ranging
over a factor of 2; ``ALPHA`` sits in the middle.  On those rounds the
spread (quartile distance over median) was 0.21 and 0.28 bare, 0.13 and
0.20 scaled in full, and 0.07 and 0.10 with an exponent of 0.7.
"""
from __future__ import annotations

import os
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.1
NOMINAL_S = 0.002    # about the median reference time on the machine of the README figures
ALPHA = 0.75         # how far program times follow the reference, in logs (see above)


def scale(wall, reference_s):
    """``wall`` seconds at the reference speed, given the reference time measured meanwhile."""
    return wall * (NOMINAL_S / reference_s) ** ALPHA


def reference():
    """A fixed mix of what the program does: exact rationals, tuples and dicts."""
    n = 6
    m = [[Fraction((3 * i + 7 * j) % 11 - 5, 1 + (i + j) % 3) for j in range(n)]
         for i in range(n)]
    for k in range(n):
        piv = m[k][k] or Fraction(1)
        for i in range(k + 1, n):
            f = m[i][k] / piv
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    acc = {}
    for i in range(3000):
        key = (i % 17, (i * i) % 13, i % 5)
        acc[key] = acc.get(key, 0) + i
    return m[n - 1][n - 1], len(acc)


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, the one the samples measure."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Sampler:
    def __init__(self):
        self.samples = []     # seconds per reference computation, in time order
        self.spent = 0.0      # seconds spent taking samples
        self._busy = False

    def sample(self, *_):
        if self._busy:        # a tick that lands inside a sample is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, seconds):
        """Sample back to back for about ``seconds``, outside any timed work."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.sample()
