"""Host-speed sampling, so that timings survive a shared host's slow spells.

On a shared VM the same CPU-bound code runs up to about 2x slower for
minutes at a time: another tenant's load slows the vCPU itself, so CPU
time slows as much as wall time and no estimator over one run removes a
slow spell that lasts the whole run.  So a fixed probe, independent of the
program under test, is timed every ``INTERVAL_S`` of wall time while the
program runs (from a ``SIGALRM`` handler, between bytecodes of the main
thread).  The mean probe time over a window measures the host's speed in
that window, and a window's time is reported at reference speed::

    normalized = (window_s - probe_total_s) * PROBE_REF_S / mean_probe_s

The probe's own time is taken out first.  ``PROBE_REF_S`` is the probe's
time at the fast speed of the 2-vCPU Xeon VM the benchmark was tuned on,
so normalized times read as seconds on that VM when it runs fast.  A
faster program still lowers them in proportion; a slower host does not.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.025
PROBE_REF_S = 3.5e-4

# The probe mixes the two kinds of work the program's hot paths do: small
# LAPACK calls through numpy and plain interpreter arithmetic.
_A = np.array([[2.0, 0.3], [0.3, 1.0]])
_X = np.ones(2)


def probe():
    total = 0.0
    for _ in range(12):
        low = np.linalg.cholesky(_A)
        total += float(np.linalg.solve(low, _X) @ _X)
    for i in range(1500):
        total += (i * i) % 7
    return total


def timed_probe():
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


class Sampler:
    """Times ``probe`` every ``INTERVAL_S`` between ``start`` and ``stop``."""

    def __init__(self):
        self.total_s = 0.0
        self.count = 0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        self.total_s += timed_probe()
        self.count += 1

    def start(self):
        self.total_s, self.count = 0.0, 0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop sampling; return the window's probe statistics.

        A window too short for a tick gets one probe just after it, which
        measures the speed but is not part of the window's time.
        """
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self.count == 0:
            return {"probe_s": 0.0, "mean_probe_s": timed_probe(), "count": 0}
        return {"probe_s": self.total_s, "mean_probe_s": self.total_s / self.count,
                "count": self.count}


def normalized(window_s, stats):
    """``window_s`` at reference speed, given the window's ``stats``."""
    return (window_s - stats["probe_s"]) * PROBE_REF_S / stats["mean_probe_s"]
