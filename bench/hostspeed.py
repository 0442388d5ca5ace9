"""Host speed, sampled with a fixed reference loop between the timed calls.

On a shared machine the speed of Python code drifts by 25% or more for tens of
seconds at a time, longer than a whole run, so taking the median of a call's
runs does not remove it.  After every timed call and set-up, and between the
steps of a set-up, the benchmark runs a small reference loop (more often
after long calls).  Each call or set-up time is divided by the median
reference time from WINDOW_S before it to WINDOW_S after it and multiplied by
REFERENCE_SECONDS: the timings then read as on a host where the reference
takes REFERENCE_SECONDS.  The reference has the shape of the program's hot
path (exact averaged scores, then a ranking) but none of its code, so a
change to the program cannot change the reference.  The cyclic garbage
collector is off while the reference runs, so that the size of the program's
heap does not feed into the reference time.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time
from fractions import Fraction

#: the reference's median time on the sizing host in its fast state
REFERENCE_SECONDS = 7e-5
WINDOW_S = 0.5
MIN_SAMPLES = 9
#: one more reference run per this much call time, so long calls are bracketed
SAMPLE_EVERY_S = 0.02
MAX_SAMPLES_PER_CALL = 50

_rng = random.Random(0)
_SCORES = [tuple(Fraction(_rng.randint(0, 6), 2) for _ in range(4)) for _ in range(64)]
_ROWS = [tuple((_rng.randrange(64), Fraction(_rng.randint(1, 9), 36)) for _ in range(4))
         for _ in range(256)]


def reference_work(position: int) -> list[int]:
    """Weighted sum of four exact score vectors, then a ranking: fixed data."""
    totals = [Fraction(0)] * 4
    for j, w in _ROWS[position % len(_ROWS)]:
        for a, s in enumerate(_SCORES[j]):
            totals[a] += w * s
    return sorted(range(4), key=lambda a: (-totals[a], a))


class HostSpeed:
    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0  # wall time taken by sampling, to take out of a set-up's time

    def sample(self, after_seconds: float) -> None:
        """Time the reference once, plus once per SAMPLE_EVERY_S of the call just timed."""
        runs = 1 + min(int(after_seconds / SAMPLE_EVERY_S), MAX_SAMPLES_PER_CALL - 1)
        enabled = gc.isenabled()
        gc.disable()
        begin = time.perf_counter()
        try:
            for _ in range(runs):
                start = time.perf_counter()
                reference_work(len(self.starts))
                self.seconds.append(time.perf_counter() - start)
                self.starts.append(start)
        finally:
            if enabled:
                gc.enable()
        self.spent += time.perf_counter() - begin

    def tick(self) -> None:
        """Time the reference once if SAMPLE_EVERY_S has gone by since the last run.

        Called between the steps of a set-up, so that a long set-up is scaled by
        the host speed during it, not only around it.
        """
        if not self.starts or time.perf_counter() - self.starts[-1] >= SAMPLE_EVERY_S:
            self.sample(0.0)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_SECONDS over the median reference time around [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:  # too few close by: take the nearest ones
            middle = bisect.bisect(self.starts, (start + end) / 2)
            lo = max(0, min(middle - MIN_SAMPLES // 2, len(self.starts) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return REFERENCE_SECONDS / statistics.median(self.seconds[lo:hi])

    def scaled(self, start: float, seconds: float) -> float:
        """`seconds` that began at `start`, as on the reference host."""
        return seconds * self.factor(start, start + seconds)
