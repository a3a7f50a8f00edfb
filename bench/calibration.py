"""Reference kernel and the speed probe that scales measured times by it.

The benchmark runs on shared machines whose CPU speed swings between about
two levels, up to half apart, for seconds to minutes at a time: other
tenants' load slows every instruction stream on the core, often for whole
runs, so no estimator over a run's own samples removes it. The probe runs a
fixed reference kernel between the measured intervals. A slowdown slows the
kernel as it slows the solver, so an interval multiplied by
REFERENCE_S / (kernel time measured around it) reads about the same whatever
the machine's speed was at that moment. Code with a larger working set
slows more than the kernel does, so scaling narrows the spread of a timing
without removing it.

The kernel is a mix like the solver's: interpreter bookkeeping, exact
rational arithmetic and comparisons, a walk over a heap of small objects,
simplex-like pivots on a small array and a small HiGHS linear program. Timed in slices beside solves and
verifies, this mix tracked their speed better than any one part of it. It calls nothing in ergopump, so a change to the program never
changes it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

# The kernel's time on the machine the benchmark was defined on (2-vCPU KVM
# guest, Intel Xeon model 143, Python 3.11, numpy 2.4, scipy 1.17) in a quiet
# spell. Scaled times are seconds of that machine at that speed.
REFERENCE_S = 0.016

PROBE_EVERY_S = 0.5  # longest stretch of measured work between two kernel runs
SMOOTH_S = 1.0  # kernel runs this close to an interval set its scale
WARMUP_RUNS = 5

_RNG = np.random.default_rng(20150813)
_LP_A = _RNG.random((10, 6))
_LP_B = np.ones(10)
_LP_C = -np.ones(6)
_TABLEAU = _RNG.random((6, 12))
HEAP_OBJECTS = 200_000
WALK_STEPS = 10_000
COMPARISONS = 2_500


def reference_kernel(heap, walk) -> float:
    total = 0
    for i in walk:
        total += heap[i].numerator
    pivot = heap[len(heap) // 2]
    for i in walk[:COMPARISONS]:
        total += heap[i] > pivot
    for i in range(25000):
        total += i * i % 7
    exact = Fraction(0)
    for i in range(1, 400):
        exact += Fraction(i % 13, i)
    tableau = _TABLEAU.copy()
    for step in range(300):  # simplex-like pivots on a small dense array
        row = step % tableau.shape[0]
        col = int(np.argmax(tableau[row, :-1]))
        tableau -= np.outer(tableau[:, col], tableau[row] / (tableau[row, col] + 1.0)) * 1e-3
    total += linprog(_LP_C, A_ub=_LP_A, b_ub=_LP_B, bounds=(0, None), method="highs").status
    return total + float(exact) + float(tableau[0, 0])


class SpeedProbe:
    """Kernel timings taken between measured intervals, and the scaling they give."""

    def __init__(self):
        # Rationals on a heap of about 20 MB, visited and compared in a
        # scattered order, as the solver's exact-rational model is built,
        # validated and rechecked.
        self._heap = [Fraction(i, 7) for i in range(HEAP_OBJECTS)]
        rng = np.random.default_rng(HEAP_OBJECTS)
        self._walk = rng.permutation(HEAP_OBJECTS)[:WALK_STEPS].tolist()
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._seconds: list[float] = []
        for _ in range(WARMUP_RUNS):
            reference_kernel(self._heap, self._walk)
        self.sample()

    def sample(self):
        start = time.perf_counter()
        reference_kernel(self._heap, self._walk)
        end = time.perf_counter()
        self._starts.append(start)
        self._ends.append(end)
        self._seconds.append(end - start)

    def due(self):
        """Run the kernel if PROBE_EVERY_S has passed since it last ran."""
        if time.perf_counter() - self._ends[-1] >= PROBE_EVERY_S:
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """end - start in reference seconds.

        The interval is scaled by the mean time of the kernel runs within
        SMOOTH_S of it: one kernel run is itself noisy, and the machine's
        speed drifts over seconds. The interval must have been measured
        after a call of `due`, which puts a kernel run within PROBE_EVERY_S
        before it.
        """
        lo = bisect.bisect_left(self._ends, start - SMOOTH_S)
        hi = bisect.bisect_right(self._starts, end + SMOOTH_S)
        return (end - start) * REFERENCE_S / statistics.fmean(self._seconds[lo:hi])

    def intervals(self) -> list[tuple[float, float]]:
        """(start, end) of every kernel run so far."""
        return list(zip(self._starts, self._ends))
