"""A fixed reference job that gauges how fast the host runs right now.

On a shared host the same code runs 10-30% slower or faster from one minute
to the next, because other tenants share the cores' caches and the memory
bus; the slowdown shows in this process's CPU time as much as in its wall
time, so it is not steal that CPU time could leave out. A run therefore
repeats this job between its driver calls. The job is the search's own kind
of work written with numpy alone, not with the package: a fresh grid, a 2D
FFT, a stable argsort of every pixel (the set-up), then one-pixel replay
updates, magnitude errors and rollbacks (the loop). Its time follows the
host's speed and nothing the package does, so the ratio of a driver call's
time to it stays put while the host's speed drifts, and any change to the
package's own speed passes into that ratio in full.
"""

from __future__ import annotations

import math
import time

import numpy as np

SEED = 0


def run(n: int, loops: int) -> float:
    """Seconds for one reference job on an n x n grid with ``loops`` updates."""
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    replay = np.fft.fft2(rng.standard_normal((n, n))) / n
    target = np.abs(replay)
    target *= 0.9
    order = np.argsort(rng.random(n * n), kind="stable")
    ramp = (-2j * math.pi / n) * np.arange(n)
    for k in range(loops):
        y, x = divmod(int(order[k]), n)
        inc = np.multiply.outer(np.exp(ramp * y) * (0.1 / n), np.exp(ramp * x))
        replay += inc
        d = np.abs(replay)
        d -= target
        flat = d.ravel()
        flat @ flat
        if k % 2:
            replay -= inc
    return time.perf_counter() - t0
