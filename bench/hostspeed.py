"""Host speed, from a fixed reference kernel timed between units of work.

The reference machine (2 vCPUs shared with other tenants) runs the same
code up to about 1.8 times slower at times, and process CPU time slows
with it.  The host switches between a fast and a slow mode many times a
second, and the share of slow time drifts over seconds to minutes, so a
raw time measures the host as much as the program.  So the benchmark
times a small fixed kernel, the tracker's own mix of Kalman-sized numpy
products and a pure-Python IoU loop, every ``EVERY_S`` seconds between
units of the program's work (never inside a timed call).  Each program
time is divided by the host's slowdown around it: the mean kernel time of
the probes near that interval, over ``NOMINAL_S``.  It is a mean, not a
median, since a program time is itself a mean over the modes it ran in;
the slowest and fastest tenth of the probes are left out of it, so that a
probe preempted for tens of milliseconds does not skew it.  Timings are thus seconds at the reference host speed.  The kernel
belongs to the benchmark and never changes, so parent and change are
scaled by the same yardstick, and a slower program still reads slower.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Kernel time on the reference machine in a fast phase; it only sets the
# scale of the normalised times.
NOMINAL_S = 0.0022
EVERY_S = 0.1
WINDOW_S = 3.0   # probes this close to an interval describe its host speed
MIN_PROBES = 10  # else the nearest probes, to have a steady mean
TRIM = 0.1       # share of probes left out at each end of the mean

_F = np.eye(8) + np.eye(8, k=4)
_Q = np.eye(8) * 0.01
_H = np.eye(4, 8)
_R = np.eye(4)
_Z = np.ones(4)
_BOXES = [(float(i % 37), float(i % 23), float(i % 37 + 20), float(i % 23 + 40))
          for i in range(40)]


def kernel(reps: int = 40) -> float:
    """Fixed work: Kalman predict/update on an 8-d state and a box IoU loop."""
    x, p, acc = np.zeros(8), np.eye(8), 0.0
    for i in range(reps):
        x = _F @ x
        p = _F @ p @ _F.T + _Q
        k = np.linalg.solve(_H @ p @ _H.T + _R, _H @ p).T
        x = x + k @ (_Z - _H @ x)
        p = p - k @ _H @ p
        b = _BOXES[i % len(_BOXES)]
        for c in _BOXES:
            iw = min(b[2], c[2]) - max(b[0], c[0])
            ih = min(b[3], c[3]) - max(b[1], c[1])
            if iw > 0 and ih > 0:
                inter = iw * ih
                acc += inter / ((b[2] - b[0]) * (b[3] - b[1])
                                + (c[2] - c[0]) * (c[3] - c[1]) - inter)
    return acc


class HostSpeed:
    """Probes of the kernel, and program times scaled by them."""

    def __init__(self):
        self.starts: list[float] = []   # perf_counter at each probe's start
        self.times: list[float] = []    # each probe's kernel seconds
        self.paused = False
        self._next = 0.0

    def probe(self) -> None:
        t = time.perf_counter()
        kernel()
        d = time.perf_counter() - t
        self.starts.append(t)
        self.times.append(d)
        self._next = t + d + EVERY_S

    def tick(self) -> None:
        """Probe if one is due; call between units of the program's work."""
        if not self.paused and time.perf_counter() >= self._next:
            self.probe()

    def slowdown(self, a: float, b: float) -> float:
        """Trimmed mean probe time near [a, b], over ``NOMINAL_S``."""
        lo = bisect.bisect_left(self.starts, a - WINDOW_S)
        hi = bisect.bisect_right(self.starts, b + WINDOW_S)
        while hi - lo < min(MIN_PROBES, len(self.starts)):
            # widen towards the side whose next probe is nearer
            if lo > 0 and (hi == len(self.starts)
                           or a - self.starts[lo - 1] < self.starts[hi] - b):
                lo -= 1
            else:
                hi += 1
        near = sorted(self.times[lo:hi])
        cut = int(len(near) * TRIM)
        return statistics.fmean(near[cut:len(near) - cut]) / NOMINAL_S

    def probe_s(self, a: float, b: float) -> float:
        """Seconds of probes that ran inside [a, b]."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.starts, b)
        return sum(d for s, d in zip(self.starts[lo:hi], self.times[lo:hi])
                   if s + d <= b)

    def seconds(self, a: float, b: float) -> float:
        """Program seconds in [a, b], probes excluded, at reference speed."""
        return (b - a - self.probe_s(a, b)) / self.slowdown(a, b)

    def summary(self) -> dict:
        s = sorted(self.times)
        return {"probes": len(s), "nominal_s": NOMINAL_S,
                "slowdown_median": statistics.median(s) / NOMINAL_S if s else None,
                "slowdown_q1_q3": ([q / NOMINAL_S for q in statistics.quantiles(s, n=4)[::2]]
                                   if len(s) >= 2 else None)}
