"""Reference kernel: a fixed piece of work that gauges the machine's current speed.

The benchmark runs on a few cores of a shared host, whose speed drifts by
tens of percent within seconds and by more over minutes.  The worker runs
this kernel before and after every command and, on a timer, during it,
and scales each command's time by ``REFERENCE_S / (the kernel's median
time around it)``.  A time then reads as it would on a machine where the
kernel takes ``REFERENCE_S``, so a drift of the host's speed cancels out,
while a change to varitrace, which the kernel does not use, does not.

The kernel mixes the kinds of work varitrace's hot path does: scalar
floating-point Python (an RK4 ray march through a Munk profile), small
numpy array products and scalar scipy spline evaluations.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np
from scipy.interpolate import CubicSpline

# Kernel time the benchmark scales to.  The kernel takes 1.0-1.5 ms on a
# 2.1 GHz Xeon VM core, so scaled times stay close to wall times there.
REFERENCE_S = 1.0e-3
STEPS = 40

_DEPTHS = np.linspace(0.0, 5000.0, 51)
_SPLINE = CubicSpline(_DEPTHS, 1500.0 + 0.02 * np.abs(_DEPTHS - 1300.0), bc_type="natural")
_SHEAR = np.array([[1.0, 1e-3], [0.0, 1.0]])


def _munk(z: float) -> tuple[float, float]:
    eta = 2.0 * (z - 1300.0) / 1300.0
    c = 1500.0 * (1.0 + 0.00737 * (eta - 1.0 + math.exp(-eta)))
    return c, 1500.0 * 0.00737 * (1.0 - math.exp(-eta)) * 2.0 / 1300.0


def _slope(z: float, theta: float) -> tuple[float, float]:
    c, dc = _munk(z)
    return math.tan(theta), dc / c


def kernel() -> float:
    """March one ray ``STEPS`` RK4 steps; return its final depth."""
    z, theta, h = 1000.0, 0.1, 20.0
    q = np.eye(2)
    for _ in range(STEPS):
        k1 = _slope(z, theta)
        k2 = _slope(z + 0.5 * h * k1[0], theta + 0.5 * h * k1[1])
        k3 = _slope(z + 0.5 * h * k2[0], theta + 0.5 * h * k2[1])
        k4 = _slope(z + h * k3[0], theta + h * k3[1])
        z += h * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]) / 6.0
        theta += h * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]) / 6.0
        q = _SHEAR @ q
        theta += 1e-9 * (float(_SPLINE(z, 1)) + float(_SPLINE(z, 2)))
    return z + float(q[0, 1])


class Reference:
    """Kernel samples taken between commands and, on a timer, during them.

    ``samples`` holds every kernel time in the order taken.  ``paused_s``
    adds up the time the timer spent in the kernel, so that a caller can
    take it out of a command's wall time.  Use as a context manager to
    run the timer; it only works in the main thread.
    """

    def __init__(self, period_s: float = 0.1):
        self.period_s = period_s
        self.samples: list[float] = []
        self.paused_s = 0.0
        self._sampling = False
        self._previous = None

    def sample(self) -> float:
        """Time one kernel run and keep the time."""
        self._sampling = True
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self._sampling = False
        self.samples.append(elapsed)
        return elapsed

    def factor(self, first: int) -> float:
        """Scale for the time spanned by ``samples[first:]``."""
        return REFERENCE_S / statistics.median(self.samples[first:])

    def _on_timer(self, signum, frame) -> None:
        if self._sampling:
            return   # a timer sample inside a sample would inflate the outer one
        start = time.perf_counter()
        self.sample()
        self.paused_s += time.perf_counter() - start

    def __enter__(self) -> "Reference":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
