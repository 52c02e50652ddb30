"""Scaling timings to a reference machine speed.

The benchmark runs on shared machines whose speed drifts by up to 2x over
seconds to tens of seconds, on the same inputs.  So a fixed calibration loop
(dict accumulation over tuple keys, like the program's inner loops) is timed
in the measured thread next to the work: after every file the CLI writes,
every ``PERIOD_S`` on a timer signal, and after every import measured for
``setup_s``.  A time t measured while the loops nearby took a median of c ns
is reported as ``t * REFERENCE_NS / c``: the time the work would take when
the loop takes REFERENCE_NS.  Time spent in the loop is left out of t.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# median time of calibrate() on an idle 2-vCPU Intel Xeon at 2.0 GHz, Python 3.11
REFERENCE_NS = 280_000
PERIOD_S = 0.02

_A = tuple(((i, j), (7 * i + 3 * j) % 11 - 5) for i in range(8) for j in range(8))
_B = _A[:24]


def calibrate() -> int:
    """Run the calibration loop once; return its duration in ns."""
    start = time.perf_counter_ns()
    out: dict = {}
    for (i1, j1), c1 in _A:
        for (i2, j2), c2 in _B:
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return time.perf_counter_ns() - start


def scaled(t: float, loop_ns: float) -> float:
    return t * REFERENCE_NS / loop_ns


class Timeline:
    """Calibration samples taken in the measured thread, with the total time
    spent taking them.  As a context manager it also samples on a SIGALRM
    timer, so that a file that runs for seconds gets samples of its own."""

    def __init__(self, loop=calibrate, timer: bool = True):
        self.loop = loop
        self.timer = timer
        self.starts: list[int] = []
        self.loops: list[int] = []
        self.spent = 0
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # a timer signal arrived while sampling
            return
        self._busy = True
        try:
            start = time.perf_counter_ns()
            self.loops.append(self.loop())
            self.starts.append(start)
            self.spent += time.perf_counter_ns() - start
        finally:
            self._busy = False

    def __enter__(self) -> "Timeline":
        if self.timer:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def loop_ns(self, start: int, end: int, minimum: int = 9) -> float:
        """Median loop time of the samples started in [start, end), or of
        the ``minimum`` samples nearest its middle when it holds fewer."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        if hi - lo < minimum:
            mid = bisect.bisect_left(self.starts, (start + end) // 2)
            lo = max(0, min(mid - minimum // 2, len(self.starts) - minimum))
            hi = lo + minimum
        return statistics.median(self.loops[lo:hi])
