"""The host's speed, sampled during a run, to rescale timings to one speed.

On a shared host the same single-threaded code runs at its best speed or up
to twice as slow, in stretches from a fraction of a second to minutes, each
virtual CPU on its own (README.md, "Measured spread").  While a `HostSpeed`
is active, a SIGALRM handler times a fixed probe every PERIOD_S: a chain of
small numpy calls, the kind of work that dominates the workloads.

`scaled(t0, t1)` is the duration t1 - t0 multiplied by the mean of
REFERENCE_S / probe time over the probes started near [t0, t1].  That is
the time the interval would have taken at the speed where the probe takes
REFERENCE_S.  A change that makes the program do less work lowers the
scaled time in proportion; a slow stretch of the host does not raise it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.03
# probes started this long before or after an interval also count for it,
# so that an interval shorter than PERIOD_S has probes too
MARGIN_S = 0.1
PROBE_STEPS = 150
# the probe's time at the best speed of a 2-vCPU Xeon (Sapphire Rapids)
# KVM guest; scaled times are in seconds at that speed
REFERENCE_S = 0.18e-3

_C, _S = np.cos(0.3), np.sin(0.3)
_ROTATION = (np.array([[_C, -_S, 0, 0], [_S, _C, 0, 0], [0, 0, _C, -_S], [0, 0, _S, _C]])
             @ np.array([[1, 0, 0, 0], [0, _C, -_S, 0], [0, _S, _C, 0], [0, 0, 0, 1]]))


def probe():
    """The fixed work whose time measures the host's speed: two small numpy
    calls per step; the rotation keeps the values bounded."""
    x = np.eye(4)
    for _ in range(PROBE_STEPS):
        x = np.abs(np.dot(_ROTATION, x))
    return x


class HostSpeed:
    """Context manager that probes the host's speed while it is active."""

    def __init__(self):
        self.starts = []    # probe start times, ascending
        self.ratios = []    # REFERENCE_S / probe time
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        self.starts.append(t0)
        self.ratios.append(REFERENCE_S / (time.perf_counter() - t0))

    def __enter__(self):
        # a probe at each end, so that every interval of even a short run
        # has a probe near it
        self._on_alarm(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_alarm(None, None)
        return False

    def scaled(self, t0, t1):
        """t1 - t0 rescaled to the reference speed.  Call it after the
        probes that follow t1 have run, e.g. once the run has ended."""
        lo = bisect.bisect_left(self.starts, t0 - MARGIN_S)
        hi = bisect.bisect_right(self.starts, t1 + MARGIN_S)
        if lo == hi:
            raise RuntimeError(f"no speed probe near the interval [{t0}, {t1}]")
        return (t1 - t0) * statistics.fmean(self.ratios[lo:hi])
