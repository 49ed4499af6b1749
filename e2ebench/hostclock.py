"""A clock that runs at a fixed reference speed of the processor.

The 2-vCPU host this benchmark was written on runs each vCPU at two
speeds ~1.8x apart, switching within milliseconds, with a share of fast
time that drifts over seconds and minutes (see ``README.md``).  A
wall-clock time of a step then says as much about the host as about the
program.

:class:`HostClock` follows the speed of the vCPU the benchmark is pinned
to: every :data:`PERIOD` seconds a ``SIGALRM`` handler measures the CPU
time of :func:`reference`, a fixed pure-Python loop of the kind the
program runs.  CPU time, not wall time, so that a sample that shares the
vCPU with a program process (the daemon the benchmark waits for) is not
read as a slow host.  The clock advances each stretch of wall time
between two samples by::

    stretch * NOMINAL / (CPU time the sample at the stretch's start took)

and leaves the samples themselves out, so it never runs backwards.  A
step timed with :meth:`now` thus reads the seconds it would take on a
vCPU that runs the reference loop in :data:`NOMINAL` seconds.  The
reference is the benchmark's own code, so a change to the program moves
the clock's readings only through the time the program itself takes.
Pin the process (and any program process it waits for) to one vCPU, so
that the samples and the work share it: :func:`pin_to_one_cpu`.
"""

from __future__ import annotations

import os
import random
import signal
import time
from typing import List

#: Seconds between two samples.
PERIOD = 0.1
#: Iterations of :func:`reference` per sample (1.7-3.1 ms on the host above).
REFERENCE_ITERATIONS = 3000
#: Seconds one sample takes at the reference speed: a round figure a little
#: under the samples' median on the host above (2.3-2.9 ms per run).
NOMINAL = 2e-3


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, key: int) -> int:
        self.value = (self.value ^ key) & 0xFFFF
        return self.value


_rng = random.Random(5)
_TABLE = {k: k for k in range(256)}
_ITEMS = list(range(256))
_CELL = _Cell()
#: A working set of ~2 MB (tuple keys, rows of ints), walked in a
#: scattered order: the host's slow phases slow memory-bound code more
#: than a loop that stays in the first-level cache.
_KEYS = [tuple(_rng.randrange(4) for _ in range(8)) for _ in range(4096)]
_COUNTS = dict.fromkeys(_KEYS, 0)
_ROWS = [[_rng.randrange(1000) for _ in range(16)] for _ in range(2048)]


def reference(iterations: int) -> int:
    """Dict and list indexing, a method call, integer arithmetic and tuple
    hashing; a fifth of the iterations walk the large working set.

    It allocates no container, so a sample never triggers (and never
    absorbs) a garbage collection of the program's objects.
    """
    table, items, cell = _TABLE, _ITEMS, _CELL
    acc = 0
    for i in range(iterations):
        key = (i * 7919) & 255
        acc ^= table[key] + items[acc & 255]
        table[key] = acc & 1023
        acc = cell.bump(acc)
    counts, keys, rows = _COUNTS, _KEYS, _ROWS
    for i in range(iterations // 5):
        counts[keys[(i * 2654435761) & 4095]] += 1
        row = rows[(i * 40503) & 2047]
        acc += row[(i + 3) & 15] if row[i & 15] > 500 else -1
    return acc


def pin_to_one_cpu() -> None:
    """Pin this process (and the processes it starts) to one vCPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostClock:
    """``now()`` in seconds at the reference speed; see the module text."""

    def __init__(self) -> None:
        self.samples = 0
        #: CPU seconds each sample took.
        self.taken: List[float] = []
        #: Wall seconds spent in samples (left out of the clock).
        self.overhead = 0.0
        self._virtual = 0.0
        self._busy = False
        reference(REFERENCE_ITERATIONS)  # warm the loop before the first sample
        self._last_end = time.perf_counter()
        self._last_taken = NOMINAL
        self._sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._sample()

    def _sample(self) -> None:
        self._busy = True
        started = time.perf_counter()
        cpu = time.thread_time()
        reference(REFERENCE_ITERATIONS)
        taken = time.thread_time() - cpu
        ended = time.perf_counter()
        self._virtual += (started - self._last_end) * NOMINAL / self._last_taken
        self._last_end, self._last_taken = ended, taken
        self.overhead += ended - started
        self.taken.append(taken)
        self.samples += 1
        self._busy = False

    def now(self) -> float:
        while True:
            seen = self.samples
            value = self._virtual + ((time.perf_counter() - self._last_end)
                                     * NOMINAL / self._last_taken)
            if seen == self.samples:  # no sample landed in between
                return value

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
