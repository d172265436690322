"""Host-speed probe: normalises host time against a fixed reference loop.

The shared hosts this benchmark runs on change speed in streaks of
seconds, by up to 1.7x, for every process alike: a neighbour's load,
not the program.  A fixed loop of interpreter work and small NumPy
operations, the mix the simulator's engines run, slows by about the same
factor.  So the benchmark times that loop between jobs (and every
``PROBE_INTERVAL_S`` on the farm's event loop) and scales each job's
host time by ``REFERENCE_S / probe time nearby``.  The result reads as
host time on a core where the probe takes exactly ``REFERENCE_S``.

The probe is the benchmark's own code, so a change to the program
cannot move it; it allocates nothing the garbage collector tracks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import List

import numpy as np

#: Probe time that normalised times are scaled to.
REFERENCE_S = 1e-3

#: Loop lengths: about 0.5 ms each on a 2.1 GHz Xeon core.
PYTHON_ITERATIONS = 4000
NUMPY_ITERATIONS = 120

#: Gap between probes on an asyncio event loop.
PROBE_INTERVAL_S = 0.025


def reference_loop() -> int:
    table = {}
    total = 0
    for k in range(PYTHON_ITERATIONS):
        table[k & 255] = k
        total += table.get((k * 7) & 255, 0)
    lanes = np.arange(32, dtype=np.int32)
    ones = np.ones(32, dtype=np.int32)
    for k in range(NUMPY_ITERATIONS):
        mixed = lanes + ones * k
        mixed = np.where(mixed > 100, mixed - 7, mixed)
        total += int(mixed[3])
    return total


class HostSpeed:
    """Probe timings taken during a run, in time order."""

    def __init__(self):
        self.starts: List[float] = []
        self.seconds: List[float] = []

    def probe(self) -> None:
        began = perf_counter()
        reference_loop()
        self.seconds.append(perf_counter() - began)
        self.starts.append(began)

    def factor(self, start: float, end: float) -> float:
        """Scale for host time spent in ``[start, end]``, from the probes
        inside it and the nearest one on either side.  Wider windows or
        medians track the streaks worse: measured on this benchmark's
        workloads, they widen the run-to-run spread."""
        lo = max(bisect_left(self.starts, start) - 1, 0)
        hi = bisect_right(self.starts, end) + 1
        nearby = self.seconds[lo:hi]
        if not nearby:
            raise ValueError("no host-speed probe was taken")
        return REFERENCE_S * len(nearby) / sum(nearby)

