"""Machine-speed calibration for the end-to-end timings.

On a shared virtual machine the speed of one CPU drifts by 15-30% over
minutes, as other guests load the host.  A run of the benchmark cannot
stop that, but it can measure it: a fixed piece of reference work, timed
between tasks, slows down with the machine.  Every end-to-end time is
scaled by REFERENCE_S / (mean reference time over the run), that is, to
the speed at which the reference work takes REFERENCE_S.  The mean, not
the median, is what tracks throughput when the machine flips between a
fast and a slow state.  On the recording machine the scale stayed within
0.68-1.32, so the scaled times stay near the seconds a user sees.

There are two kinds of reference work, one per kind of workload:

    loop     a pure-Python float loop, for the in-process workloads;
    process  a fresh interpreter that imports numpy, for `cli`, whose
             time is mostly process start and import.

Neither runs ljchain code, so a change to the library does not move the
scale.  A change that left a busy background thread in the measured
process would slow the loop as well, and would be hidden.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

# mean reference time on the recording machine, per kind
REFERENCE_S = {"loop": 0.0028, "process": 0.18}
# share of a run's time spent on reference work, at most
OVERHEAD = 0.1


def loop_seconds() -> float:
    """Time one pass of a float loop like the library's series sums."""
    start = time.perf_counter()
    s = 0.0
    for k in range(1, 10001):
        s += math.exp(-k * 1e-4) / (k + 0.5) ** 2.5
    return time.perf_counter() - start


def process_seconds() -> float:
    """Time a fresh interpreter that imports numpy and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - start


MEASURE = {"loop": loop_seconds, "process": process_seconds}


class Calibration:
    """Reference times taken during one timed phase."""

    def __init__(self, kind: str):
        self.kind = kind
        self.times: list[float] = []
        self._next = -math.inf

    def maybe(self) -> float:
        """Time the reference work if it is due; return the seconds spent.

        It is due once the time since the last one is 1/OVERHEAD times
        what the last one took, so the share of the run stays OVERHEAD.
        """
        now = time.perf_counter()
        if now < self._next:
            return 0.0
        t = MEASURE[self.kind]()
        self.times.append(t)
        self._next = now + t / OVERHEAD
        return t

    def scale(self) -> float:
        """Factor that takes a time measured in this phase to reference
        speed."""
        return REFERENCE_S[self.kind] / (sum(self.times) / len(self.times))
