"""Machine-speed calibration for the end-to-end times.

The shared machines this benchmark runs on change speed by up to a
factor of two, in stretches of a few seconds to minutes, while nothing
in the benchmark changes.  To take that out of the figures, an interval
timer runs a fixed pure-Python kernel every ``INTERVAL`` seconds for the
whole measurement, in the same process, and records when each sample
started and how long the kernel took.  A time measured from ``start``
for ``seconds`` is then reported as

    measured time * REFERENCE_S / median kernel time near it,

where "near it" means the samples that started from ``WINDOW`` seconds
before ``start`` to ``WINDOW`` seconds after its end: seconds of a
machine on which the kernel takes ``REFERENCE_S``.  A local median
follows the machine through a run; one median over the whole run does
not.  Each sample runs the kernel twice and times the second run, so
that what the item left in the caches does not move the sample.

The kernel uses no library code, so a change to the library does not
move the scale; do not change the kernel, the interval, the window or
the reference, or figures from before and after stop being comparable.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from time import perf_counter

INTERVAL = 0.025
WINDOW = 0.25
REFERENCE_S = 150e-6

_rng = random.Random(5)
_ADJ = [0] * 18
for _i in range(18):
    for _j in range(_i):
        if _rng.random() < 0.5:
            _ADJ[_i] |= 1 << _j
            _ADJ[_j] |= 1 << _i
_MATRIX = [[_rng.randint(-2, 2) for _ in range(10)] for _ in range(8)]


def _bits(m: int):
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def kernel() -> int:
    """Bitmask clique enumeration and integer row reduction, the two
    kinds of work the library does most."""
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(r)
            return
        pivot = max(_bits(p | x), key=lambda i: (_ADJ[i] & p).bit_count())
        for v in _bits(p & ~_ADJ[pivot]):
            expand(r | 1 << v, p & _ADJ[v], x & _ADJ[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, (1 << 12) - 1, 0)
    a = [row[:] for row in _MATRIX]
    for t in range(len(a)):
        piv = next((i for i in range(t, len(a)) if a[i][t]), None)
        if piv is None:
            continue
        a[t], a[piv] = a[piv], a[t]
        for i in range(t + 1, len(a)):
            if a[i][t]:
                f, p = a[i][t], a[t][t]
                a[i] = [p * x - f * y for x, y in zip(a[i], a[t])]
    return len(out)


class Calibration:
    """Runs the kernel from SIGALRM while the ``with`` block runs."""

    def __init__(self):
        self.starts: list[float] = []
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        kernel()
        t0 = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self) -> "Calibration":
        self._tick(None, None)  # a block shorter than INTERVAL still gets a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, seconds: float) -> float:
        """What a time measured from ``start`` for ``seconds`` is
        multiplied by; the whole run's median if no sample is near."""
        lo = bisect.bisect_left(self.starts, start - WINDOW)
        hi = bisect.bisect_right(self.starts, start + seconds + WINDOW)
        near = self.samples[lo:hi] or self.samples
        return REFERENCE_S / statistics.median(near)
