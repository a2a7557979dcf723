"""Scaling measured times to a reference machine speed.

On a shared machine the speed of a CPU drifts by up to a factor of two
over seconds, as neighbours come and go; a raw wall time then says more
about the neighbours than about the program. The benchmark therefore
times a fixed calibration loop (small numpy products and norms driven
from Python, the same mix of interpreter overhead and tiny kernels as
the package's own code) between ops, and scales each op's wall time by
``(REFERENCE_S / calibration time) ** ELASTICITY``, the calibration time
being the mean of the calibrations just before and just after the op.
The package's ops speed up and slow down less than the loop does, by the
measured exponent ``ELASTICITY``. Reported times are wall-clock times at
the speed at which the loop takes ``REFERENCE_S``.

The calibration code is part of the benchmark and never changes with
the package, so the scale is the same on both sides of any comparison.
The ``verify`` ops and the set-up probes run in child processes; each
child is scaled by calibrations taken in this process just before and
after it. The exponent was also checked on children (README.md): it is
close to the best one for set-up probes and only weakly determined for
``verify`` children.
"""

from time import perf_counter

import numpy as np

# Best-of-three time of the calibration loop at the reference speed.
REFERENCE_S = 0.004
# How strongly op times follow the calibration time: the slope of log op
# time against log calibration time, measured over 100 s of alternating
# sorting trajectories (n = 8; 0.67) and chart round trips (n = 12; 0.75).
ELASTICITY = 0.7
_ITERATIONS = 200
_X = np.arange(16.0).reshape(4, 4) / 16.0


def _calibration_step(x):
    """A validated commutator with the skew part of x: the kind of work
    one field evaluation does, written independently of the package."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or not np.all(np.isfinite(a)):
        raise ValueError("calibration input is not a finite matrix")
    low = np.tril(a, -1)
    skew = low - low.T
    return float(np.linalg.norm(a @ skew - skew @ a))


def calibration_s():
    """Best of three timings of the calibration loop."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        for _ in range(_ITERATIONS):
            _calibration_step(_X)
        best = min(best, perf_counter() - start)
    return best


class SpeedTracker:
    """Scale factors for ops, from calibrations taken between them.

    ``done(key)`` marks an op as finished. A calibration runs once at
    least ``interval_s`` has passed since the previous one (after every
    op when it is 0), and on ``flush``; every op finished in between gets
    the factor from the two calibrations around it.
    """

    def __init__(self, interval_s):
        self.interval_s = interval_s
        self.factors = {}
        self._pending = []
        calibration_s()  # the first pass warms caches and is not used
        self._last = calibration_s()
        self._last_at = perf_counter()

    def done(self, key):
        self._pending.append(key)
        if perf_counter() - self._last_at >= self.interval_s:
            self.flush()

    def flush(self):
        if not self._pending:
            return
        now = calibration_s()
        factor = _factor(self._last, now)
        for key in self._pending:
            self.factors[key] = factor
        self._pending = []
        self._last = now
        self._last_at = perf_counter()

    def timed(self, fn):
        """Run ``fn()`` between two fresh calibrations; return its result,
        its wall time and the factor from those calibrations."""
        self.flush()
        before = calibration_s()
        start = perf_counter()
        result = fn()
        wall = perf_counter() - start
        self._last = calibration_s()
        self._last_at = perf_counter()
        return result, wall, _factor(before, self._last)


def _factor(before, after):
    return (REFERENCE_S / (0.5 * (before + after))) ** ELASTICITY
