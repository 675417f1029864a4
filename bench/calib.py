"""Host-speed probe, and a job clock that counts time in probe units.

The benchmark's host is a shared virtual machine whose speed swings by tens
of percent, within a second and over minutes, and pure-Python steps slow
alike.  ``probe`` times a fixed piece of pure-Python work that mixes what
the program does most: products of term maps keyed by exponent tuples with
growing integer coefficients, and Fraction row operations.  ``JobClock``
interrupts a round with a timer signal every PROBE_EVERY_S seconds to run
the probe, and divides the job time between two probes by their mean.  The
sum, times REFERENCE_PROBE_S, is the job time the round would take at the
host speed where one probe takes REFERENCE_PROBE_S; drift moves it far less
than the raw time.  This module never imports the program under test.
"""

import signal
import time
from fractions import Fraction

ROUNDS = 14
PROBE_EVERY_S = 0.25
# probes at the start of a round, whose median is the host speed of set-up
FIRST_PROBES = 3
# probe time on a quiet 2-core 2.1 GHz Xeon virtual machine, Python 3.11
REFERENCE_PROBE_S = 0.0137


def _work():
    f = {(1, 0): 1, (0, 1): 1, (-1, -1): 1, (-1, 0): 2, (0, -1): 3}
    g = dict(f)
    for _ in range(5):
        h = {}
        for ea, ca in g.items():
            for eb, cb in f.items():
                e = (ea[0] + eb[0], ea[1] + eb[1])
                h[e] = h.get(e, 0) + ca * cb
        g = h
    rows = [[Fraction(i * j + 1, i + j + 1) for j in range(6)]
            for i in range(6)]
    for k in range(6):
        pivot = rows[k][k]
        for i in range(k + 1, 6):
            factor = rows[i][k] / pivot
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return len(g), rows[5][5]


def probe():
    """(start, end) of one run of the fixed probe work, timed now."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        _work()
    return start, time.perf_counter()


class JobClock:
    """Job time of a round, raw and in probe units.

    ``start``/``stop`` bracket each job; ``stop`` returns the job's seconds
    without the probes run inside it.  The signal handler only appends to
    the probe list, and all sums are made from the recorded intervals, so
    no interleaving of the handler with the job loop counts time twice.
    With ``sampling`` off (a traced round, whose spans must not contain
    probes) the clock probes only at its start and at ``finish``."""

    def __init__(self, sampling=True):
        self.sampling = sampling
        self.probes = [probe() for _ in range(FIRST_PROBES)]
        self.jobs = []
        self._start = None
        if sampling:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def _tick(self, signum, frame):
        # a one-shot timer, re-armed here, so a probe is never interrupted
        self.probes.append(probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def start(self):
        self._start = time.perf_counter()

    def stop(self):
        end = time.perf_counter()
        start = self._start
        self.jobs.append((start, end))
        return end - start - sum(b - a for a, b in self.probes
                                 if a >= start and b <= end)

    def finish(self):
        """Stop probing; return (raw, reference) job seconds of the round.

        Each stretch of job time between two probes is divided by the mean
        probe time of the two; the sum times REFERENCE_PROBE_S is the
        reference time."""
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.probes.append(probe())
        raw = work = 0.0
        for (a0, a1), (b0, b1) in zip(self.probes, self.probes[1:]):
            busy = sum(max(0.0, min(end, b0) - max(start, a1))
                       for start, end in self.jobs)
            raw += busy
            work += busy / ((a1 - a0 + b1 - b0) / 2)
        return raw, work * REFERENCE_PROBE_S
