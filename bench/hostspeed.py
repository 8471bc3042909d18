"""Host-speed correction for benchmark episode times.

On a shared host the same episode runs up to 1.8 times slower for seconds
at a time, while the process keeps its CPU (the slowdown is in the core,
not in scheduling).  The benchmark therefore times this fixed pure-Python
kernel right before and right after each episode.  An episode's corrected
time is its wall time scaled by ``REFERENCE_S`` over the mean of the two
kernel times: its wall time on a host where the kernel takes
``REFERENCE_S``.  The kernel is shaped like the
simulator's hottest loops (pairwise distance scans in pure Python) and must
never change, so a program change moves a corrected time exactly as it
moves the wall time on a steady host.
"""

from __future__ import annotations

import math
import time

__all__ = ["REFERENCE_S", "kernel_seconds", "corrected"]

#: about the kernel's time on a quiet host, so corrected times read as wall
#: times there
REFERENCE_S = 0.007


def _kernel(rounds: int = 5) -> float:
    """Nearest-neighbour scans over 120 points, the shape of the
    simulator's per-vehicle neighbour and observation queries."""
    xs = [float(i * 7 % 113) for i in range(120)]
    ys = [float(i % 2) * 4.0 for i in range(120)]
    total = 0.0
    for _ in range(rounds):
        for i in range(120):
            xi, yi = xs[i], ys[i]
            nearest = math.inf
            for j in range(120):
                if j != i:
                    d = math.hypot(xs[j] - xi, ys[j] - yi)
                    if d < nearest:
                        nearest = d
            total += nearest
        xs = [x + 0.1 for x in xs]
    return total


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def corrected(wall_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
    """Wall time of an episode bracketed by the two kernel runs, at the
    reference host speed."""
    return wall_s * REFERENCE_S / (0.5 * (kernel_before_s + kernel_after_s))
