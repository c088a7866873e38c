"""Host speed reference for the benchmark's timings.

The machines this benchmark runs on share their cores with other
tenants, and their speed moves in phases of tens of seconds: plain wall
times of the same request differ by up to 1.8x between phases while
nothing in the process changes.  A run of a few tens of seconds catches
one or two phases, so plain medians of separate runs spread by 20-30%.

The fix is a fixed kernel of the same kind of work as the workloads
(small numpy calls, scalar math, small allocations), independent of the
package, timed before and after every repetition and between requests
at most ``INTERVAL_S`` apart.  Timings are reported in reference
seconds: measured seconds times ``REFERENCE_S / kernel seconds``, with
the kernel time interpolated at the middle of the timed interval, i.e.
the time the work would take on the same host running the kernel in
``REFERENCE_S``.  A change to the package moves reference seconds
exactly as it moves wall seconds; a change of host speed moves both the
work and the kernel and cancels.  The raw wall times are reported next
to them.  Process start-up (``setup_s``) does not follow the kernel, so
it is reported in plain seconds.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# median kernel time on the 2-core development host; fixed, so reference
# seconds stay comparable across commits
REFERENCE_S = 5.0e-3
WINDOW_S = 0.05
# host speed changes within seconds, so the kernel is sampled between
# requests whenever this much time has passed since the last sample
INTERVAL_S = 0.5


def kernel() -> float:
    acc = 0.0
    for i in range(150):
        x = np.geomspace(1.0, 2.0 + i * 1e-3, 8)
        acc += math.exp(-float(x[3])) + math.atan(float(x[5]))
        d = {"a": i, "b": [i, i + 1]}
        acc += len(d["b"])
    return acc


def kernel_seconds(window: float = WINDOW_S) -> float:
    """Median time of the kernel over ``window`` seconds of back-to-back runs."""
    times = []
    start = perf_counter()
    while perf_counter() - start < window:
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Speed:
    """Kernel times sampled over the run, and scale factors derived from them."""

    def __init__(self, interval: float = INTERVAL_S):
        kernel()  # first call pays numpy's one-off costs
        self.interval = interval
        self.times = []
        self.kernel_s = []
        self.spent = 0.0  # seconds spent sampling, to keep out of timed intervals
        self.sample()

    def sample(self):
        start = perf_counter()
        self.kernel_s.append(kernel_seconds())
        end = perf_counter()
        self.times.append(0.5 * (start + end))
        self.spent += end - start

    def maybe_sample(self):
        """Sample unless the last sample is younger than ``interval``."""
        if perf_counter() - self.times[-1] >= self.interval:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor to reference seconds for ``[start, end]``, from the kernel
        time interpolated at its midpoint between the samples around it."""
        return REFERENCE_S / float(np.interp(0.5 * (start + end), self.times, self.kernel_s))
