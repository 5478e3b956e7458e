"""Host-speed calibration: a fixed kernel timed between the ops of a run.

The shared host this benchmark runs on drifts between faster and slower
phases (30-50% apart, lasting from under a second to a minute), which
move the timings taken in them by much the same share.  The worker times one calibration
slice before each op and one after each batch; `factor()` turns the
mean of the slices just before and after an op into the multiplier that
brings its time to the reference speed, where one slice takes
REFERENCE_S:

    reported = measured * REFERENCE_S / mean(slice before, slice after)

Set-up is scaled the same way by slices timed right after it.  Ops much
longer than a phase (the d = 24 ladder, 3 s) are tracked less well than
short ones: the two slices miss the phases in between.

The kernel uses nothing from curlflux, so a change to the program moves
the reported times by the same share as the measured ones; only
the host's speed is divided out.  Its mix follows the program's: an
interpreted loop, many small numpy solves (the per-frequency resolvent
at d = 3) and two BLAS-sized solves (the ladders).
"""

import statistics
import time

import numpy

REFERENCE_S = 0.008         # one slice at the reference host speed


def _operands():
    rng = numpy.random.default_rng(20210127)
    small = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    large = rng.standard_normal((144, 144)) + 1j * rng.standard_normal((144, 144))
    return small + 9 * numpy.eye(9), numpy.ones(9, complex), large + 144 * numpy.eye(144)


_SMALL, _RHS, _LARGE = _operands()


def _kernel():
    acc = 0.0
    for i in range(50000):
        acc += (i % 7) * 0.5
    for k in range(240):
        numpy.linalg.solve(_SMALL + k * 1e-3, _RHS)
    for _ in range(2):
        numpy.linalg.solve(_LARGE, _LARGE)
    return acc


def slice_s():
    """Seconds one calibration slice takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def factor(slices):
    """Multiplier from measured to reference-speed times."""
    return REFERENCE_S / statistics.mean(slices)
