"""Host-speed yardstick: a fixed numpy/scipy computation timed between calls.

The benchmark's host is shared: its cores run up to about 1.8 times slower
for minutes at a time, so raw pass times drift between runs by more than a
regression worth catching.  The yardstick does the same work on every call
and uses nothing from ``smoothcdf``, so no change to the program can move
it.  A pass times it after each of its calls; the pass's wall time divided
by the mean of those yardstick times is the pass's cost in yardstick units,
and the host's speed over that pass cancels out of it.

It comes in two kinds, matched to how a workload uses the cores:

- ``serial``: one thread doing vectorised special functions (``ndtr`` and
  ``gammainc``), a pure-Python loop and a loop of small numpy calls, the
  mix of the point evaluations, fits and bisection quantiles;
- ``parallel``: blocks of vectorised ``ndtr`` and ``gammainc`` mapped over
  ``workers`` threads, the shape of the sweep engine's column fan-out, so
  that it slows, as the sweeps do, when one of the cores is busy elsewhere.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import special as sp

_RNG = np.random.default_rng(20200521)
_BLOCK = _RNG.normal(size=(40, 50, 1))  # repetitions x observations, as in a kernel block
_NODES = np.linspace(-3.0, 3.0, 64)
_ORDERS = _RNG.uniform(1.0, 50.0, size=4000)

SERIAL_BLOCKS = 12
SERIAL_LOOP = 150_000
SERIAL_SMALL = 3_000
PARALLEL_BLOCKS = 48


def _vector_block(_=None):
    fhat = sp.ndtr((_NODES[None, None, :] - _BLOCK) / 0.05).mean(axis=1)
    return float(fhat.sum() + sp.gammainc(_ORDERS, 20.0).sum())


def _interpreter_loop(reps):
    total, last = 0.0, {}
    for i in range(reps):
        total += math.sqrt(i) * 1.0001
        last[i & 255] = total
    return total


def _small_numpy_loop(reps):
    a = np.arange(64.0)
    for _ in range(reps):
        a = np.sqrt(a + 1.0).cumsum() / 64.0
    return float(a[0])


class Yardstick:
    """The fixed reference computation of one kind; ``measure`` times it."""

    def __init__(self, kind, workers):
        if kind not in ("serial", "parallel"):
            raise ValueError(f"unknown yardstick kind {kind!r}")
        self.kind = kind
        self.workers = workers
        self.ticks = []

    def run(self):
        if self.kind == "serial":
            for _ in range(SERIAL_BLOCKS):
                _vector_block()
            _interpreter_loop(SERIAL_LOOP)
            _small_numpy_loop(SERIAL_SMALL)
            return
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            list(pool.map(_vector_block, range(PARALLEL_BLOCKS)))

    def measure(self):
        """Wall seconds of one run of the yardstick."""
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start

    def tick(self):
        """Time one run and keep it; a pass calls this after each of its calls."""
        self.ticks.append(self.measure())

    def take(self):
        """The times kept since the last take."""
        ticks, self.ticks = self.ticks, []
        return ticks
