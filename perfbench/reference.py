"""A fixed pure-Python reference loop that rescales times to one machine speed.

On a shared machine every Python loop slows and speeds up together, by up
to a third between runs a minute apart. The benchmark times this loop next to
each measured operation and reports ``wall / loop * NOMINAL_S``: the seconds
the operation would take on a machine that runs the loop in NOMINAL_S. The
loop's mix of dict, tuple, heap and integer work is what the solver does.
"""

from __future__ import annotations

import heapq
import time

STEPS = 150_000
NOMINAL_S = 0.125


def loop_seconds() -> float:
    """Wall seconds of one pass of the reference loop."""
    start = time.perf_counter()
    heap: list[tuple[int, int]] = []
    seen: dict[int, int] = {}
    for i in range(STEPS):
        key = (i * 7919) % 1021
        seen[key] = seen.get(key, 0) + i
        heapq.heappush(heap, (key, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


def rescale(seconds: float, before: float, after: float) -> float:
    """Seconds at nominal speed, from the loop times around a measurement."""
    return seconds * NOMINAL_S / ((before + after) / 2)
