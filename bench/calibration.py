"""Machine-speed samples taken between a pass's operations.

The shared machines this benchmark runs on change speed as neighbours come
and go: a fixed kernel runs at one of two speeds, the slow one about 1.6
times slower, switching within seconds, and the share of slow time drifts
over minutes.  The drift moved the measured time of the same pass by up to
40 % between runs.  So the kernel is timed RUNS times between operations,
outside the timed calls, at most once every INTERVAL_S.  The pass's
operations are multiplied by the kernel's reference time over its mean time
in the pass.  The result is the pass's time in reference-machine seconds.

An operation longer than LONG_OP_S keeps its measured seconds: it averages
the fast switching itself, and samples at its two ends do not represent it.
The 45 s uniqueness probe read 48.5-49.7 s in three runs whose end samples
differed by a factor of 1.6.

The kernel mixes the program's kinds of work: a SuperLU factorization and
back-solve, Python-level root finding, and numpy arithmetic on arrays larger
than the processor's per-core cache.  It runs no program code.  Its arrays
add about 4 MB to the worker's peak resident memory.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import optimize, sparse
from scipy.sparse.linalg import splu

# Typical kernel time on the reference machine (2 cores, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1).  It only sets the unit of the scaled time.
REFERENCE_KERNEL_S = 0.045
INTERVAL_S = 1.0    # least spacing of samples, so they cost about 10 %
RUNS = 3
LONG_OP_S = 20.0


def _matrix(n=56):
    """Fixed unsymmetric sparse matrix shaped like a 2-D five-point stencil."""
    m = n * n
    return sparse.diags([-1.0, -1.0, 4.3, -1.2, -0.8], [-n, -1, 0, 1, n],
                        shape=(m, m), format="csc")


def kernel(matrix, rhs, grid):
    start = time.perf_counter()
    splu(matrix).solve(rhs)
    for k in range(1000):
        optimize.brentq(lambda x: x**3 - 2.0 - 1e-4 * k, 0.0, 2.0)
    float((np.sin(grid) * np.exp(-grid)).sum())
    return time.perf_counter() - start


class Calibrator:
    """Kernel run times, taken between operations."""

    def __init__(self, clock=time.perf_counter, run=None):
        self.clock = clock
        if run is None:
            args = (_matrix(), np.ones(56 * 56), np.linspace(0.0, 1.0, 400_000))
            run = lambda: kernel(*args)  # noqa: E731
            run()  # warm-up: first-call allocations are not machine speed
        self.run = run
        self.runs = []
        self.last = -float("inf")

    def between(self, force=False):
        """Time the kernel RUNS times if INTERVAL_S has passed since the last."""
        if force or self.clock() - self.last >= INTERVAL_S:
            self.runs.extend(self.run() for _ in range(RUNS))
            self.last = self.clock()

    def scale_now(self, seconds):
        """``seconds`` just measured, in reference seconds (latest sample)."""
        latest = self.runs[-RUNS:]
        return seconds * REFERENCE_KERNEL_S * len(latest) / sum(latest)

    def scaled(self, timings):
        """Sum of (start, seconds) timings in reference-machine seconds."""
        factor = REFERENCE_KERNEL_S * len(self.runs) / sum(self.runs)
        return sum(s if s > LONG_OP_S else s * factor for _, s in timings)
