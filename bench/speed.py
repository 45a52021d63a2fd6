"""Machine-speed probes, for timings that a busy shared host does not skew.

On a shared host the same work runs up to ~1.7x slower while neighbours
are busy, in episodes of seconds to minutes. A run therefore measures two
probes all through, neither of which runs package code:

- the start-up probe: `python -c pass`, spawn to exit, timed by run.py
  between samples. It tracks process start-up, which dominates CLI
  invocations and set-up times.
- the compute probe, probe() below, timed every SAMPLE_EVERY_S inside each
  worker while its job list runs. It tracks pure-Python computation.

A timing is scaled by REF / (the run's median of the matching probe), so
it reads as seconds on a machine where that probe takes REF.
"""

import signal
import time

START_REF_S = 0.05
COMPUTE_REF_S = 0.0015
SAMPLE_EVERY_S = 0.25


def task():
    """Integer row elimination on a 40x40 list-of-lists matrix."""
    rows = [[(i * j) % 7 - 3 for j in range(40)] for i in range(40)]
    for k in range(20):
        rk = rows[k]
        for i in range(k + 1, 40):
            ri = rows[i]
            q = ri[k] // (rk[k] or 1)
            for j in range(40):
                ri[j] -= q * rk[j]


def probe():
    start = time.perf_counter()
    task()
    return time.perf_counter() - start


class Sampler:
    """Appends probe() times to `times` every SAMPLE_EVERY_S of wall time,
    from a SIGALRM handler, so that a long computation is sampled while it
    runs; each probe costs about 1.5 ms, under 1% of the sampled time. The
    handler adds three frames to the interrupted stack, so code that recurses
    to within three frames of the recursion limit fails slightly earlier."""

    def __init__(self):
        self.times = []

    def _tick(self, signum, frame):
        self.times.append(probe())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
