"""The interpreter's speed of the moment, and reference-speed seconds.

Kept apart from the workloads so that a fresh interpreter can time the
package's import and then read the gauge without importing anything first.
"""

from __future__ import annotations

import random
import statistics
import time

# The calibration sweep's median time on the reference box (2 cores, Python
# 3.11.7): the unit that reference-speed seconds are counted in.
NOMINAL_SWEEP_S = 0.00113


class Gauge:
    """The interpreter's current speed, from a fixed pure-Python sweep.

    On the shared 2-core box this benchmark was tuned on, the same code runs
    up to 15% faster or slower for seconds at a time, and whole runs drift
    with it. `factor` times the sweep (breadth-first search over a fixed
    random graph, list and set work like the program's own) and compares it
    with the previous sweep; a time
    measured between the two, multiplied by the factor, is in reference-speed
    seconds, in which the drift cancels. Each reading is the median of five
    sweeps after an untimed one, so that caches the program left cold do not
    count as a slow machine.
    """

    def __init__(self):
        rng = random.Random(1)
        self._adj: list[list[int]] = [[] for _ in range(3000)]
        for _ in range(6000):
            u, v = rng.randrange(3000), rng.randrange(3000)
            self._adj[u].append(v)
            self._adj[v].append(u)
        self._last = self._reading()

    def _reading(self) -> float:
        self._sweep()
        return statistics.median(self._sweep() for _ in range(5))

    def _sweep(self) -> float:
        t0 = time.perf_counter()
        adj, seen = self._adj, set()
        for s in range(len(adj)):
            if s in seen:
                continue
            seen.add(s)
            queue = [s]
            for x in queue:
                for w in adj[x]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
        return time.perf_counter() - t0

    def factor(self) -> float:
        """Reference-speed seconds per second since the previous call."""
        before, self._last = self._last, self._reading()
        return 2 * NOMINAL_SWEEP_S / (before + self._last)

    def scale(self) -> float:
        """Reference-speed seconds per second at the latest reading: for a
        time measured just before the gauge was made."""
        return NOMINAL_SWEEP_S / self._last
