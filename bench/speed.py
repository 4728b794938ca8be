"""Machine-speed reference for the timing metrics.

On a shared machine the same op can take twice as long from one minute to the
next, in CPU time as well as wall time, because other tenants slow the cores
down.  ``calibrate`` times a fixed kernel that does not touch qlesim: a mix of
interpreter work, small-array numpy calls and prefix sums over a
20000-element array, as in the workloads.  The benchmark runs it before and
after every op and scales the op's time by ``REFERENCE_S`` over the mean of
the two kernel times.  Timing metrics are therefore reported at the machine
speed at which the kernel takes ``REFERENCE_S``.  Both sides of a comparison
use the same kernel, so a change to qlesim moves the scaled times as it moves
the raw ones.
"""

import time

import numpy as np

# about the median kernel time on a 2-vCPU Intel Xeon VM (Python 3.11.7,
# numpy 2.4.6)
REFERENCE_S = 0.018

_SMALL = np.linspace(0.0, 1.0, 64)
_NUMERATOR = np.linspace(0.0, 1.0, 20000)
_DENOMINATOR = np.linspace(1.0, 2.0, 20000)


def _kernel() -> float:
    # about 55% interpreter loop, 20% small-array calls and 25% prefix sums by
    # time: the mix that made the scaled medians of all three workloads steady
    # over a sample of processes
    total = 0.0
    for i in range(120000):
        total += (i % 7) * 0.5
    for i in range(600):
        total += float(np.sum(np.cos(_SMALL * i + 0.5)))
    for i in range(1, 161):
        ratio = _NUMERATOR[: i * 125] / _DENOMINATOR[: i * 125]
        total += float(np.sqrt(np.sum(ratio * ratio)))
    return total


def calibrate() -> float:
    """Wall time of one run of the reference kernel, in seconds."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two kernel timings, at reference speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
