"""Interpreter speed, sampled while a pass runs, to scale times to a reference speed.

On a shared host the same pass can take 1.0 s or 1.8 s depending on what
the neighbours run, and slow phases can outlast a whole run, so medians of
raw times disagree between runs by 20-30%.  A fixed pure-Python loop,
timed every 0.2 s from a timer signal during the pass, slows with the pass.
A pass time divided by the mean loop time of that pass, times the loop time
on the reference machine, is the pass time at reference speed.  The mean,
not the median: a pass pays for every slow spell in it, and samples evenly
spaced in time weigh each spell by its length.  On the reference machine,
over 23 passes of each workload, this cut the pass-to-pass spread of scaled
times to about half of what the median gave.  Time spent in the loop is
subtracted from what it interrupts.

The loop must not depend on the work it interrupts, or a change to qderiv's
memory use would move the scale and hide or inflate its own effect.  So it
allocates nothing and is timed on its second run with the collector off.
On the reference machine, timed right after 40 ms of allocation-heavy,
cache-heavy, large-heap or qderiv certify work, its median was within 0.5%
of its median after a plain arithmetic loop.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter
from typing import Callable

INTERVAL = 0.2
# calibrate() on the reference machine (2-CPU shared Linux VM, Python 3.11)
# in a quiet phase; it sets only the scale of the reported times
REFERENCE_S = 0.00044

_TABLE = {(i & 15, i >> 4): (i * 37) & 127 for i in range(256)}
_KEYS = tuple(_TABLE)
_STEP = tuple((i * 5 + 3) & 127 for i in range(128))


def _loop() -> int:
    # Every int stays in 0..254, which CPython keeps preallocated, so the
    # loop allocates nothing and its cost does not depend on the heap.
    acc = 0
    get = _TABLE.get
    for _ in range(32):
        for key in _KEYS:
            acc = _STEP[(acc + get(key, 0)) & 127]
    return acc


def calibrate() -> float:
    """Seconds for a fixed loop of dict lookups and tuple indexing.

    The loop runs twice with the collector off and only the second run is
    timed, so neither the caches nor the heap the interrupted work left
    behind are paid for here.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _loop()
        t0 = perf_counter()
        _loop()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Sample calibrate() before and every INTERVAL during a ``with`` block.

    ``stolen()`` is the time spent calibrating since the block began, to be
    subtracted from any interval measured inside it; ``on_steal`` is told
    each amount as it is taken.
    """

    def __init__(self, on_steal: Callable[[float], None] | None = None) -> None:
        self.samples: list[float] = []
        self._stolen = 0.0
        self._on_steal = on_steal

    def _sample(self, *_args) -> None:
        t0 = perf_counter()
        self.samples.append(calibrate())
        dt = perf_counter() - t0
        self._stolen += dt
        if self._on_steal is not None:
            self._on_steal(dt)

    def stolen(self) -> float:
        return self._stolen

    def factor(self) -> float:
        """Reference speed over measured speed: multiply a time by it."""
        return REFERENCE_S / statistics.fmean(self.samples)

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._stolen = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
