"""Machine-speed calibration for the timed metrics.

The benchmark runs on shared virtual machines whose speed moves by 20 to
70%, from one millisecond to the next and for minutes at a time, with the
process on the CPU all along (other tenants share the host's cores and
caches).  A run's wall
times then measure the neighbours as much as the program.  So the runner
times a fixed pure-Python kernel between operations, and scales each
operation's wall time by ``REFERENCE_S`` over the readings taken just
before and just after it.  The kernel never calls the library: a change
to the library moves the calibrated time exactly as it moves the wall
time, while a change in the machine's speed slows the kernel and the
operation alike and cancels out.  One reading catches the speed of one
moment, while an operation lasts through many, so an operation is scaled
by the mean of the readings within ``WINDOW_S`` of it.  The wall times are kept beside the
calibrated ones in the records.
"""

import bisect
import gc
import statistics
import time
from typing import List

# A round figure between the readings of ``reading()`` on the reference
# machine (a shared 2-core virtual machine, Python 3.11.7) in its fast
# and slow spells, 0.12 to 0.24 ms, so calibrated seconds are of the order
# of that machine's wall seconds.
REFERENCE_S = 0.00020
# A reading is taken after an operation when the last one is older than
# this; shorter operations share readings, which keeps the kernel's cost
# near 2% of a run.
GAP_S = 0.05
REPEATS = 5
# Of the windows tried on the reference machine (0.1 to 5 s on either
# side), 0.1 and 0.25 s gave the steadiest metrics over seeds: the speed
# one reading sees is hardly related to the speed a second later, so wider
# windows average over spells the operation did not see.
WINDOW_S = 0.25


def _kernel() -> int:
    """Dict, tuple and small-integer work, the mix the library's
    polynomial arithmetic is made of."""
    p = {(i, j): (i * 7 + j * 3) % 101 + 1 for i in range(5) for j in range(5)}
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in p.items():
            k = (a1 + a2, b1 + b2)
            out[k] = (out.get(k, 0) + c1 * c2) % 101
    return len(out)


def reading() -> float:
    """The mean time of a few runs of the kernel, with the garbage
    collector paused so that the library's heap does not add to it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            t = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.fmean(times)


class Clock:
    """Readings taken through a phase, and the factor that turns the wall
    time of an operation into calibrated time."""

    def __init__(self, window_s: float = WINDOW_S):
        self.window_s = window_s
        self.times: List[float] = []
        self.values: List[float] = []

    def read(self) -> None:
        self.times.append(time.perf_counter())
        self.values.append(reading())

    def read_if_due(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= GAP_S:
            self.read()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean of the readings begun within
        ``window_s`` of the operation, counting always the last one begun
        before ``start`` and the first begun after ``end``."""
        times, w = self.times, self.window_s
        before = max(bisect.bisect_right(times, start) - 1, 0)
        after = min(bisect.bisect_left(times, end), len(times) - 1)
        lo = min(before, bisect.bisect_left(times, start - w))
        hi = max(after + 1, bisect.bisect_right(times, end + w))
        return REFERENCE_S / statistics.fmean(self.values[lo:hi])
