"""Machine-speed probe: scales timings to a fixed reference speed.

On a machine shared with other tenants the same code runs up to 1.5x
slower for seconds or minutes at a time, and plain wall times of one
command spread by 0.3 (interquartile range over median). ``Clock`` starts a
SIGALRM timer that runs a fixed numpy kernel every ``INTERVAL_S`` in this
process's main thread. The kernel runs twice back to back and only the
second, cache-warm run is timed, so its time follows the machine and not
the code it interrupted. ``Clock.seconds`` gives an interval's wall time,
less the time spent in the probe, multiplied by ``REFERENCE_S`` over the
geometric mean of the probe times taken during the interval: the time the
interval would have taken at the speed where the kernel takes
``REFERENCE_S``.

The kernel uses no cutprop code, so a change to cutprop moves the scaled
time exactly as it moves the wall time at any one machine speed.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.02
# The kernel's time on the reference machine (2-vCPU Intel Xeon VM, see
# README.md) in its fast periods.
REFERENCE_S = 30e-6

_DATA = np.arange(1024, dtype=complex)


def _kernel() -> None:
    for _ in range(10):
        b = _DATA * 1.0001
        b += _DATA


class Clock:
    """Wall-time intervals scaled to the reference speed; a context manager."""

    def __init__(self):
        self._log_sum = 0.0  # sum of log(probe seconds)
        self._count = 0
        self._spent = 0.0  # seconds spent inside the probe

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _kernel()
        warm = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self._log_sum += math.log(end - warm)
        self._count += 1
        self._spent += time.perf_counter() - start

    def __enter__(self) -> Clock:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, int, float]:
        return time.perf_counter(), self._log_sum, self._count, self._spent

    def seconds(self, mark) -> tuple[float, float]:
        """(scaled, unscaled) seconds since ``mark``, less the probe's time."""
        now = time.perf_counter()
        start, log_sum, count, spent = mark
        unscaled = now - start - (self._spent - spent)
        if self._count == count:  # shorter than one interval: probe now
            self._tick()
        probe_s = math.exp((self._log_sum - log_sum) / (self._count - count))
        return unscaled * REFERENCE_S / probe_s, unscaled
