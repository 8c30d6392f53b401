"""The benchmark's yardstick for machine speed.

The benchmark's host is shared, and its speed switches between states
that differ by half or more, several times within a few seconds, so an
operation's seconds do not compare runs; reference work timed before and
after an operation cannot follow it either.  So the speed is sampled
during the operation itself: while an untraced operation runs, an interval
timer interrupts it every INTERVAL seconds of wall time and times one run
of ``probe_work``, a fixed piece of pure-Python work of the kinds
coarsegeom does (breadth-first search over integer adjacency lists, exact
Fraction arithmetic, dict traffic).  The probes sample the speed evenly in
time, so the operation's work in units of one probe is its seconds outside
the probes times the mean of 1 / probe seconds.

The probe imports nothing from coarsegeom and runs with the cyclic garbage
collector off, so that no change to the package, not even to the size of
its heap, can change it.
"""

import gc
import random
import signal
import statistics
import time
from collections import deque
from fractions import Fraction

INTERVAL = 0.02  # seconds of wall time between probes
MIN_PROBES = 5  # an operation shorter than that many intervals is probed after it
VERTICES = 600
FRACTIONS = 120
# what probe_work returns; a different value means the work changed
EXPECTED = (3341, 121)


def _graph():
    rng = random.Random(12345)
    adj = [[] for _ in range(VERTICES)]
    for v in range(1, VERTICES):
        u = rng.randrange(v)
        adj[u].append(v)
        adj[v].append(u)
    return adj


_ADJ = _graph()


def probe_work():
    """A fixed amount of work: a BFS over a seeded tree, and a run of
    Fractions summed and hashed.  The Fractions take about four fifths of
    the time: of the probes tried, Fraction arithmetic followed the speed
    of most operations best, and BFS that of the CLI chain."""
    dist = [-1] * VERTICES
    dist[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in _ADJ[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    total = sum(dist)
    acc = Fraction(0)
    seen = {}
    for i in range(FRACTIONS):
        acc += Fraction(i % 5 + 1, i % 3 + 2)
        seen[acc] = i
    return total, len(seen) + acc.denominator


def _probe_seconds():
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        probe_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Times operations together with the speed they met.  Installs a
    SIGALRM handler for the life of the process; the timer is armed only
    while an operation runs."""

    def __init__(self):
        got = probe_work()
        if got != EXPECTED:
            raise RuntimeError(f"probe work returned {got}, not {EXPECTED}")
        self._samples = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._samples is not None:
            self._samples.append(_probe_seconds())

    def run(self, fn):
        """Call fn(); returns (its result, seconds outside the probes,
        its work in probes)."""
        samples = self._samples = []
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            t0 = time.perf_counter()
            out = fn()
            seconds = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._samples = None
        seconds -= sum(samples)
        while len(samples) < MIN_PROBES:
            samples.append(_probe_seconds())
        return out, seconds, seconds * statistics.fmean(1 / s for s in samples)
