"""Lightweight metrics: counters, gauges, histograms and snapshots.

A :class:`MetricsRegistry` holds named instruments; a
:class:`MetricsSnapshot` is a plain, picklable copy of their values.
Worker processes cannot share live instruments across a process
boundary, so a parallel campaign ships snapshots home and
:meth:`MetricsRegistry.absorb` folds them into the parent's registry.

Enabling is explicit: :func:`install` makes a registry the process
default and instrumented call sites fetch it with :func:`current`, which
returns ``None`` when observability is off.  Every guarded site is at
run/cell granularity (never per IO), so a disabled registry costs one
``is None`` check per *run* — unmeasurable next to the run itself.

The simulator layers additionally expose cumulative counter samplers
(``FlashDevice.metrics()`` and friends) returning flat ``name -> value``
mappings; :func:`diff_counts` turns two samples into the work done
between them and :func:`merge_counts` sums such deltas campaign-wide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

#: default histogram bucket upper bounds (microseconds-flavoured, but
#: callers measuring other units simply pass their own bounds)
DEFAULT_BUCKETS = (
    100.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
    10_000_000.0,
)


def _bucket_percentile(
    bounds: tuple, counts, count: int, q: float
) -> float:
    """Percentile estimate from bucketed counts (shared implementation).

    Linear interpolation within the bucket holding the target rank: the
    first bucket interpolates from 0, the overflow bucket has no upper
    edge so the estimate clamps to the last bound (the histogram cannot
    know more).  ``q`` is a fraction in [0, 1].
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("percentile fraction must be within [0, 1]")
    if count <= 0:
        return 0.0
    rank = q * count
    cumulative = 0
    for position, bucket_count in enumerate(counts):
        if cumulative + bucket_count >= rank and bucket_count:
            if position >= len(bounds):
                return bounds[-1]
            low = bounds[position - 1] if position else 0.0
            high = bounds[position]
            return low + (high - low) * ((rank - cumulative) / bucket_count)
        cumulative += bucket_count
    return bounds[-1]


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down (e.g. a pool level)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)


class Histogram:
    """Observation counts bucketed by upper bound, plus sum and count.

    Buckets are *non-cumulative*: ``counts[i]`` is the number of
    observations in ``(bounds[i-1], bounds[i]]``, with one overflow
    bucket past the last bound.
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(sorted(float(b) for b in bounds))
        if not self.bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        for position, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[position] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1

    def observe_many(self, value: float, count: int) -> None:
        """Record ``count`` identical observations in one step.

        Call sites folding pre-aggregated counters (e.g. the device's
        ``at_depth_{d}`` samples) use this instead of an observe loop.
        """
        if count < 0:
            raise ValueError("observation counts only go up")
        if count == 0:
            return
        for position, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[position] += count
                break
        else:
            self.counts[-1] += count
        self.total += value * count
        self.count += count

    @property
    def mean(self) -> float:
        """Mean of all observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]) of the observations.

        Linearly interpolated within the bucket holding the target rank;
        estimates in the overflow bucket clamp to the last bound.
        """
        return _bucket_percentile(self.bounds, self.counts, self.count, q)

    def state(self) -> "HistogramState":
        """Picklable copy of the histogram's current contents."""
        return HistogramState(
            bounds=self.bounds,
            counts=tuple(self.counts),
            total=self.total,
            count=self.count,
        )


@dataclass(frozen=True)
class HistogramState:
    """Frozen, picklable histogram contents (see :class:`Histogram`)."""

    bounds: tuple
    counts: tuple
    total: float
    count: int

    @property
    def mean(self) -> float:
        """Mean of the recorded observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile; see :meth:`Histogram.percentile`."""
        return _bucket_percentile(self.bounds, self.counts, self.count, q)


@dataclass(frozen=True)
class MetricsSnapshot:
    """Plain-data copy of a registry's values at one instant.

    Snapshots are picklable, so they cross process boundaries in worker
    results.  Run-cache entries store no snapshot, only the cell's
    device-counter delta (:func:`diff_counts`).
    """

    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)

    def scoped(self, prefix: str) -> "MetricsSnapshot":
        """The snapshot restricted to instruments named under ``prefix``.

        Convenience for report rendering (e.g. the campaign summary's
        ``core.``-scoped executor table): counters, gauges and
        histograms whose names start with ``prefix`` are kept, the rest
        dropped.  Returns a new snapshot; this one is unchanged.
        """
        return MetricsSnapshot(
            counters={
                name: value
                for name, value in self.counters.items()
                if name.startswith(prefix)
            },
            gauges={
                name: value
                for name, value in self.gauges.items()
                if name.startswith(prefix)
            },
            histograms={
                name: state
                for name, state in self.histograms.items()
                if name.startswith(prefix)
            },
        )


class MetricsRegistry:
    """Named instruments, created on first use.

    One registry per process; worker processes build their own and ship
    a :class:`MetricsSnapshot` home with each cell result.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str, bounds: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        """The histogram called ``name``, created on first use."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(bounds)
        return instrument

    def snapshot(self) -> MetricsSnapshot:
        """Picklable copy of every instrument's current value."""
        return MetricsSnapshot(
            counters={name: c.value for name, c in self._counters.items()},
            gauges={name: g.value for name, g in self._gauges.items()},
            histograms={name: h.state() for name, h in self._histograms.items()},
        )

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """Fold a worker's snapshot into this registry's instruments."""
        for name, value in snapshot.counters.items():
            self.counter(name).inc(value)
        for name, value in snapshot.gauges.items():
            gauge = self.gauge(name)
            gauge.set(max(gauge.value, value))
        for name, state in snapshot.histograms.items():
            histogram = self.histogram(name, state.bounds)
            for position, count in enumerate(state.counts):
                histogram.counts[position] += count
            histogram.total += state.total
            histogram.count += state.count


# ----------------------------------------------------------------------
# the process-global registry (None = observability off)
# ----------------------------------------------------------------------

_current: MetricsRegistry | None = None


def install(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Make ``registry`` (or a fresh one) the process default."""
    global _current
    _current = registry if registry is not None else MetricsRegistry()
    return _current


def uninstall() -> MetricsRegistry | None:
    """Disable metrics collection; returns the registry that was active."""
    global _current
    registry, _current = _current, None
    return registry


def current() -> MetricsRegistry | None:
    """The active registry, or ``None`` when metrics are disabled."""
    return _current


class installed:
    """Context manager installing ``registry`` for the block's duration.

    ``registry=None`` explicitly *disables* metrics inside the block —
    worker processes use this to shadow a registry inherited through
    ``fork`` (whose instruments would silently swallow their counts).
    The previous registry is restored on exit.
    """

    def __init__(self, registry: MetricsRegistry | None) -> None:
        self.registry = registry
        self._previous: MetricsRegistry | None = None

    def __enter__(self) -> MetricsRegistry | None:
        global _current
        self._previous = _current
        _current = self.registry
        return self.registry

    def __exit__(self, *exc_info) -> None:
        global _current
        _current = self._previous


# ----------------------------------------------------------------------
# flat counter-map helpers (the simulator layers' samplers)
# ----------------------------------------------------------------------

def diff_counts(
    after: Mapping[str, float], before: Mapping[str, float]
) -> dict[str, float]:
    """Per-name difference of two cumulative counter samples.

    Names missing from ``before`` count from zero; names that did not
    change are dropped, keeping per-run deltas small.
    """
    delta = {}
    for name, value in after.items():
        change = value - before.get(name, 0.0)
        if change:
            delta[name] = change
    return delta


def merge_counts(*maps: Mapping[str, float] | None) -> dict[str, float]:
    """Sum counter maps name-wise (``None`` entries are skipped)."""
    merged: dict[str, float] = {}
    for counts in maps:
        if not counts:
            continue
        for name, value in counts.items():
            merged[name] = merged.get(name, 0.0) + value
    return merged


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "HistogramState",
    "MetricsRegistry",
    "MetricsSnapshot",
    "current",
    "diff_counts",
    "install",
    "installed",
    "merge_counts",
    "uninstall",
]
