"""Host speed, sampled inside every timed process while it runs.

The benchmark host shares its cores.  Each vCPU switches, every second or
so, between a fast state and a slow one in which the same work takes
about 1.45 times as long; CPU time grows with wall time, so the slowdown
is not descheduling, and the two vCPUs switch independently.  Raw seconds
therefore move with the neighbours as much as with the program.

A timed process runs a ``Sampler``: every ``INTERVAL_S`` of wall time a
timer signal runs a fixed reference computation and records how long it
took.  ``scale`` turns those samples into the factor from the process's
raw seconds to seconds at the fast state's speed, and the runner reports
time at nominal speed, ``(seconds - sampling cost) * scale``, next to the
raw seconds.  The sampling cost is the time of every whole tick.  The
reference is pure Python (exact ``Fraction`` and dict arithmetic, the
program's main kind of work); it imports nothing, so it can run during
the set-up it measures, and no change to ``regmaps`` can alter its cost.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from typing import List, Sequence

INTERVAL_S = 0.05
# The reference's duration in the fast state on the host the baseline was
# taken on (Intel Xeon, 2 vCPUs).  Only its constancy matters.
NOMINAL_S = 0.00015
# How strongly the program's work slows when the reference slows: the
# least-squares slope of log raw pass time on log reference speed, over 20
# runs per workload.  degree-mc's numpy work suffers less than the exact
# Python arithmetic of the other two.
SENSITIVITY = {"sphere-verify": 0.92, "group-build": 0.92, "degree-mc": 0.68}
# Set-up (imports, job generation) was not fitted on its own; it is pure
# Python work like the exact workloads, so it takes their value.
SETUP_SENSITIVITY = 0.92


def _reference() -> int:
    acc = Fraction(0)
    terms: dict = {}
    for i in range(1, 30):
        acc += Fraction(i, i * i + 1) * Fraction(3, 2 * i + 1)
        key = (i % 7, i % 11)
        terms[key] = terms.get(key, 0) + acc.numerator % 97
    return len(terms)


class Sampler:
    """Times the reference on a wall-clock timer signal, in this process."""

    def __init__(self) -> None:
        self.samples: List[float] = []  # the timed reference calls
        self.cost = 0.0  # the time of every whole tick, warm-up call included

    def _tick(self, signum, frame) -> None:
        tick = time.perf_counter()
        _reference()  # warm: time the reference, not the interrupted code's caches
        start = time.perf_counter()
        _reference()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.cost += end - tick

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scale(samples: Sequence[float], sensitivity: float) -> float:
    """Factor from raw to nominal seconds over the samples; 1 when there are none."""
    if not samples:
        return 1.0
    return statistics.fmean((NOMINAL_S / s) ** sensitivity for s in samples)
