"""Machine speed through a run, to state measured times at one speed.

The machine the bounds were set on runs a fixed pure-Python loop up to 2x
slower from minute to minute, and a run's wall times move with it.  While
a ``Pace`` runs, a SIGALRM handler times a fixed calibration loop, which
never touches the package, every ``INTERVAL_S`` seconds.  ``scaled`` takes
a timed call's wall time, less the handler's own time inside it, times
``REFERENCE_S`` over the median calibration time within ``WINDOW_S`` of
the call: the
call's time at the speed at which the loop takes ``REFERENCE_S``.  A change
that speeds up the package leaves the loop as it was, so it still shows.

Only ``time`` is imported at module level, so that set-up time, which
imports this module before it times the package's import, does not lose
the package's own imports of ``signal`` and ``statistics``.
"""

from __future__ import annotations

import time
from typing import List, NamedTuple, Tuple

INTERVAL_S = 0.25
# a call is scaled by the samples taken this close to it
WINDOW_S = 0.5
# the calibration loop's median time on that machine, a 2-core VM
REFERENCE_S = 0.0040


def calibration() -> float:
    """Seconds one run of the fixed calibration loop takes."""
    t0 = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i % 7
    return time.perf_counter() - t0


class Interval(NamedTuple):
    start: float
    end: float
    wall: float  # end - start, less the sampler's time inside


class Pace:
    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (when, seconds)
        self._spent = 0.0

    def __enter__(self) -> "Pace":
        import signal

        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append((t0, calibration()))
        self._spent += time.perf_counter() - t0

    def mark(self) -> Tuple[float, float]:
        return time.perf_counter(), self._spent

    def since(self, mark: Tuple[float, float]) -> Interval:
        start, spent = mark
        end = time.perf_counter()
        return Interval(start, end, end - start - (self._spent - spent))

    def scaled(self, interval: Interval) -> float:
        """The interval's wall time at the reference speed, from the
        samples taken within ``WINDOW_S`` of it (or the nearest sample, if
        none was)."""
        import statistics

        around = [dt for when, dt in self.samples
                  if interval.start - WINDOW_S <= when
                  <= interval.end + WINDOW_S]
        if not around:
            around = [min(self.samples,
                          key=lambda s: abs(s[0] - interval.start))[1]]
        return interval.wall * REFERENCE_S / statistics.median(around)
