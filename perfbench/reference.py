"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark shares its cores with other tenants, whose load slows
every pass by anything up to 2x for seconds to hours at a time. The
kernel below does a fixed amount of the benchmark's kinds of work:
interpreter loops and dict inserts (the runner, planning, assembly), a
NumPy sort (the fleet engine's vector work) and random reads over a
table larger than a core's caches (the trace replay's and the pair
screen's lookups). It imports no ``repro`` code, so no change to the
program moves it. Timed between passes, it says how slow the host was
over the run, and an end-to-end time is reported in *reference
seconds*::

    reference_s = mean(pass walls) * REFERENCE_S / mean(kernel walls)

that is, the time a pass would have taken on a host where the kernel
takes ``REFERENCE_S``. Under a steady host the two differ by a constant
factor; under a varying one the reference time stays put. Means, not
medians: a pass averages the host's speed over its whole length while
a kernel run samples it, so only the ratio of totals estimates the
same slowdown for both (over six 30-second runs per workload on a
2-core x86-64 VM whose host speed drifted 1.6x, the run-to-run spread
was 8.9% on trace-full and 6.9% on fleet-policy this way, 11.5% and
9.8% as a ratio of medians, 31% and 20% in host seconds).
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

import numpy

#: The kernel's wall time on the reference host, in seconds: a round
#: figure below every run's mean on the 2-core x86-64 VM (CPython 3.11,
#: NumPy 2.4) the baseline was recorded on. Fixed, so reference seconds
#: compare across commits.
REFERENCE_S = 0.050


def kernel() -> float:
    """Run the reference work once; its wall time in seconds."""
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    table = {}
    for i in range(50_000):
        table[str(i)] = i
    numpy.random.default_rng(0).random(300_000).sort()
    lookups = numpy.arange(2_000_000, dtype=numpy.float64)  # 16 MB
    lookups[numpy.random.default_rng(1).integers(0, lookups.size, 1_000_000)].sum()
    return time.perf_counter() - started


def reference_seconds(walls: Sequence[float], kernels: Sequence[float]) -> float:
    """``walls``' mean in reference seconds, given kernel times of the same run."""
    return statistics.mean(walls) * REFERENCE_S / statistics.mean(kernels)
