"""Timings scaled to a reference CPU speed.

The machines this benchmark runs on are shared: the speed a process gets
swings by up to 2x over periods of seconds as other tenants come and go,
and whole runs land in slow or fast periods.  While a :class:`Clock`
runs, a timer signal interrupts the process every ``INTERVAL`` seconds
and times a fixed pure-Python probe (dictionary lookups and float
arithmetic, about 0.5 ms, on data small enough to stay in the CPU caches).
That gives the speed the process got, as ``REFERENCE_PROBE_S / probe time``,
throughout the run.  A timed region's scaled time is its raw time, less
the probes that interrupted it, times the mean speed factor over the
region (the nearest probe's factor for a region no probe fell into); it
reads as the time the region would take at the reference
speed.  On the reference machine, probe and program times moved together
(correlation 0.82 over 606 pairs of probe and query batch), and scaling
cut the spread of batch times from 24 % to 9 % of their median (see
README.md).  Raw times stay available next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

REFERENCE_PROBE_S = 0.00052  # the probe's time on the reference machine when it is not contended
INTERVAL = 0.02  # seconds between probes

_TABLE = {i: (i * 2654435761) % 1_000_003 for i in range(512)}
_KEYS = [(i * 40503) % 512 for i in range(6000)]

Region = tuple[float, float, float]  # start, end, raw seconds without probes


def _probe_work() -> float:
    acc = 0.0
    table = _TABLE
    for k in _KEYS:
        acc += (table[k] * 0.5) ** 0.5
    return acc


class Clock:
    """Periodic speed probes plus the arithmetic that scales regions by them."""

    def __init__(self) -> None:
        self.times: list[float] = []  # when each probe ran
        self.probes: list[float] = []  # how long it took
        self.spent = 0.0  # seconds spent inside the signal handler
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        _probe_work()  # warm-up: the program may have evicted the probe's data
        t1 = perf_counter()
        _probe_work()
        t2 = perf_counter()
        self.times.append(t1)
        self.probes.append(t2 - t1)
        self.spent += perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def begin(self) -> tuple[float, float]:
        """Start of a timed region: (time, handler seconds so far)."""
        return perf_counter(), self.spent

    def end(self, start: tuple[float, float]) -> Region:
        t1 = perf_counter()
        t0, spent0 = start
        return t0, t1, (t1 - t0) - (self.spent - spent0)

    def scaled(self, region: Region) -> float:
        """The region's raw seconds times the mean speed factor over it.

        A region no probe fell into takes the factor of the nearest probe.
        Call once the clock has stopped.
        """
        t0, t1, raw = region
        lo = bisect_left(self.times, t0)
        hi = bisect_right(self.times, t1)
        if hi > lo:
            return raw * statistics.fmean(REFERENCE_PROBE_S / p for p in self.probes[lo:hi])
        if not self.probes:
            return raw
        near = min((i for i in (lo - 1, lo) if 0 <= i < len(self.probes)), key=lambda i: abs(self.times[i] - t0))
        return raw * REFERENCE_PROBE_S / self.probes[near]
