"""Host speed, sampled while the benchmark measures, and host times
converted to *reference seconds*.

The machine the benchmark targets is a small shared VM whose speed
drifts as neighbours come and go: a fixed pure-Python loop runs from
one second to the next up to a third slower, and for minutes at a time
up to twice as slow.  No estimator inside a run (medians, minima,
fastest pass) removes drift on that time scale, so raw host times of
the same code spread across runs by more than any useful bound.

:class:`HostSpeed` therefore times a fixed reference task while the
program runs: every :data:`INTERVAL` seconds a ``SIGALRM`` timer runs
:class:`ReferenceFTL` — a small page-mapped flash translation layer in
pure Python, the same kind of work as the simulator's per-IO path
(object attributes, a dict as page map, method calls) — in the
measured process and records how long it took.  An interval of host
time converts to reference seconds as its duration, less the reference
task's own time inside it, times the ratio of :data:`REFERENCE_S` to
the task's mean duration near that interval, raised to
:data:`ELASTICITY`.  A reference second is thus the time the work would
take on a host where the reference task runs at :data:`REFERENCE_S` per
round.

On the development VM (2.1 GHz Xeon vCPU), over back-to-back repeats
of one Table 3 device row and of a small page-mapped campaign, the
program's time per unit followed the task's mean round with a log-log
correlation of 0.94–0.98, and spread a third to a half as much in
reference seconds as in raw seconds.  The program slows somewhat more
steeply than the task, hence :data:`ELASTICITY`; see README.md.

The task touches no program state and allocates nothing the garbage
collector tracks, so sampling cannot change what the program computes;
it costs about 2 % of the run, which the conversion takes out again.
"""

from __future__ import annotations

import bisect
import itertools
import signal
from time import perf_counter

#: seconds between two runs of the reference task
INTERVAL = 0.025
#: one round of the reference task at reference speed: about its mean on
#: the development VM when quiet
REFERENCE_S = 0.4e-3
#: how much more steeply the program's time rises than the reference
#: task's as the host slows: the log-log slope of pass time against the
#: task's mean round between passes of one run, 1.13 (table3), 1.20
#: (campaign_pagemap) and 1.25 (campaign_warm) over 91, 111 and 127 passes
#: on the development VM, correlation 0.96-0.97
ELASTICITY = 1.2
#: fewest rounds behind the speed of any interval: one shorter than
#: MIN_SAMPLES * INTERVAL takes the rounds nearest to it
MIN_SAMPLES = 24


class _Block:
    __slots__ = ("valid", "write_point", "erases")

    def __init__(self) -> None:
        self.valid = 0
        self.write_point = 0
        self.erases = 0


class ReferenceFTL:
    """A fixed round of page-mapped FTL writes: the reference task."""

    BLOCKS = 4096
    PAGES_PER_BLOCK = 64
    LOGICAL_PAGES = 1 << 18
    WRITES_PER_ROUND = 300

    def __init__(self) -> None:
        self.blocks = [_Block() for _ in range(self.BLOCKS)]
        self.page_map: dict[int, int] = {}
        self.busy = 0.0
        self.lpn = 7
        # map every logical page once, so each round sees the same
        # working set from the first
        for _ in range(self.LOGICAL_PAGES // self.WRITES_PER_ROUND + 1):
            self.round()

    def write(self, lpn: int) -> None:
        old = self.page_map.get(lpn)
        if old is not None:
            self.blocks[old // self.PAGES_PER_BLOCK].valid -= 1
        index = lpn % self.BLOCKS
        block = self.blocks[index]
        if block.write_point >= self.PAGES_PER_BLOCK:
            block.write_point = 0
            block.erases += 1
            block.valid = 0
        self.page_map[lpn] = index * self.PAGES_PER_BLOCK + block.write_point
        block.write_point += 1
        block.valid += 1
        self.busy += 25.0 + 0.5 * block.write_point

    def round(self) -> None:
        lpn = self.lpn
        for _ in range(self.WRITES_PER_ROUND):
            lpn = (lpn * 1103515245 + 12345) % self.LOGICAL_PAGES
            self.write(lpn)
        self.lpn = lpn


class HostSpeed:
    """Runs the reference task every :data:`INTERVAL` seconds while
    installed, and converts host intervals to reference seconds.

    Intervals are ``perf_counter()`` readings taken while installed.
    """

    def __init__(self) -> None:
        self.task = ReferenceFTL()
        #: start time and duration of every round, in time order
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._prefix: list[float] = [0.0]
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        self.task.round()
        self.durations.append(perf_counter() - start)
        self.starts.append(start)
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sum(self, lo: int, hi: int) -> float:
        """Total duration of rounds ``lo`` to ``hi - 1``."""
        prefix = self._prefix
        if len(prefix) <= hi:
            new = itertools.accumulate(self.durations[len(prefix) - 1:], initial=prefix[-1])
            prefix.extend(list(new)[1:])
        return prefix[hi] - prefix[lo]

    def rounds(self) -> int:
        return len(self.durations)

    def convert(self, start: float, end: float, seconds: float | None = None) -> float:
        """Reference seconds of the interval's wall time, or of
        ``seconds`` of CPU time spent in it.

        A long interval is cut after every :data:`MIN_SAMPLES` rounds and
        each piece converted at its own rounds' mean, so a speed change
        inside the interval is followed, not averaged away.  CPU time
        converts at the same overall rate as the wall time.
        """
        lo, hi = self._span(start, end)
        cuts = [self.starts[i] for i in range(lo + MIN_SAMPLES, hi - MIN_SAMPLES + 1, MIN_SAMPLES)]
        edges = [start, *cuts, end]
        inside = reference = 0.0
        for piece_start, piece_end in zip(edges, edges[1:]):
            piece_inside, mean = self.rounds_near(piece_start, piece_end)
            inside += piece_inside
            rate = (REFERENCE_S / mean) ** ELASTICITY
            reference += (piece_end - piece_start - piece_inside) * rate
        if seconds is None:
            return reference
        return (seconds - inside) * reference / (end - start - inside)

    def _span(self, start: float, end: float) -> tuple[int, int]:
        """Indices of the first round at or after ``start`` and of the
        first at or after ``end``."""
        count = len(self.durations)
        if count < MIN_SAMPLES:
            raise RuntimeError(
                f"only {count} reference rounds ran; is something else using SIGALRM?"
            )
        lo = bisect.bisect_left(self.starts, start, hi=count)
        return lo, bisect.bisect_left(self.starts, end, lo=lo, hi=count)

    def rounds_near(self, start: float, end: float) -> tuple[float, float]:
        """The reference task's time inside the interval, and its mean
        round near it (over at least :data:`MIN_SAMPLES` rounds)."""
        lo, hi = self._span(start, end)
        count = len(self.durations)
        inside = self._sum(lo, hi)
        # widen to the nearest rounds until there are enough of them
        while hi - lo < MIN_SAMPLES:
            if lo > 0 and (hi >= count or start - self.starts[lo - 1] <= self.starts[hi] - end):
                lo -= 1
            else:
                hi += 1
        return inside, self._sum(lo, hi) / (hi - lo)
