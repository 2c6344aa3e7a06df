"""How fast the host runs, sampled while the benchmark runs.

On a shared host the speed of one core can change by half within a tenth of
a second and stay changed for seconds or minutes, so a timing taken alone
says as much about the neighbours as about gramlm. While a :class:`Sampler`
is running, a timer interrupts the process every ``INTERVAL`` seconds and
times a short, fixed pure-Python loop in the signal handler. A timed span
is then rescaled to the speed at which the loop takes ``REFERENCE_SECONDS``:
a change in the host's speed moves the span and the loop alike and cancels,
a change in gramlm moves only the span. The time the handler itself takes is
taken out of every span it lands in.

The loop does, in about equal shares, what gramlm's stages mostly do:
tuple keys into a dict, a sort and strings into a set (enumeration,
compiling), and calls of a small function over a memo of tuples with float
arithmetic (chart parsing). Of the loops tried on a 2-core shared Xeon host, this
mix followed the operations of all four workloads most closely.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL = 0.025
# About the loop's median time on a 2-core shared Xeon host, so rescaled
# times read close to the seconds measured there.
REFERENCE_SECONDS = 0.0015
# A span with fewer samples inside it than this is rescaled by the samples
# nearest to its middle.
MIN_SAMPLES = 3


def _table_work(n: int) -> int:
    """What enumeration and compiling mostly do: tuple keys into a dict, a
    sort, strings into a set."""
    table: dict[tuple[int, int], int] = {}
    for i in range(n):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + 1
    seen = set()
    for (a, b), count in sorted(table.items()):
        seen.add(f"{a}:{b}:{count}")
    return len(seen)


def _chart_work(n: int) -> float:
    """What chart parsing mostly does: calls of a small function that looks
    up and fills a memo of tuples, and float arithmetic."""
    memo: dict[tuple[int, int], tuple[int, float]] = {}

    def cell(i: int, j: int) -> tuple[int, float]:
        got = memo.get((i, j))
        if got is not None:
            return got
        value = (i * j % 7, (i + j) * 0.5)
        memo[(i, j)] = value
        return value

    total = 0.0
    for i in range(n):
        count, prob = cell(i % 40, i % 37)
        total += count * prob
    return total


def _loop() -> None:
    """The timed loop: the two kinds of work in about equal shares."""
    _table_work(750)
    _chart_work(600)


class Sampler:
    """Samples the loop's time on a timer while it is running.

    ``times[i]`` is the middle of sample ``i`` and ``loops[i]`` its duration,
    both in :func:`time.perf_counter` seconds. ``spent`` is the total time
    spent in the handler so far; a span's own time is its length minus the
    growth of ``spent`` across it.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.loops: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        entered = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # a collection of the interrupted code's garbage is not the loop's
        try:
            start = time.perf_counter()
            _loop()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append((start + end) / 2)
        self.loops.append(end - start)
        self.spent += time.perf_counter() - entered

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns seconds measured between ``start`` and ``end``
        into seconds at the reference speed: from the mean loop time of the
        samples inside the span, or of the ``MIN_SAMPLES`` nearest to its
        middle when fewer fall inside."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < MIN_SAMPLES:
            middle = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(middle - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = min(len(self.times), lo + MIN_SAMPLES)
        if hi <= lo:
            raise RuntimeError("no speed samples; the sampler was not running")
        return REFERENCE_SECONDS / statistics.fmean(self.loops[lo:hi])
