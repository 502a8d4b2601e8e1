"""Span tracing of the simulator's layers, from outside the program.

The benchmark does not change the program to trace it: :class:`SpanRecorder`
temporarily replaces the public entry point of each layer (a class
method or module function, see :func:`targets`) with a wrapper that
records one span per call — name, start, end and the index of the
enclosing span — and restores the originals on exit.  Spans stay in
memory; the caller writes them out when the run ends.

A layer's *self* time is its spans' duration minus the part covered by
their child spans, so the self times of all layers plus the untraced
remainder (``bench.self_s``) add up to the pass's wall time.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

#: span name -> per-layer metric holding its inclusive time
INCLUSIVE = {
    "profiles.build": "profiles.build_s",
    "methodology.enforce": "methodology.enforce_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "cache.digest": "cache.digest_s",
    "snapshot.restore": "snapshot.restore_s",
    "snapshot.fingerprint": "snapshot.fingerprint_s",
    "generator": "generator.s",
    "host": "host.s",
    "analytic": "analytic.s",
}

#: layers whose self time is reported as ``<layer>.self_s``; ``bench``
#: is the pass's wall time not covered by any span
LAYERS = (
    "profiles", "methodology", "executor", "cache", "snapshot",
    "generator", "host", "analytic", "analysis", "bench",
)


def _count_program(counts, args, result) -> None:
    counts["generator.ios"] += len(args[0].program())


def _count_host(counts, args, result) -> None:
    counts["host.ios"] += len(args[1])


def _count_queued(counts, args, result) -> None:
    counts["host.ios"] += len(args[1])
    counts["host.queued_ios"] += len(args[1])


def _count_parallel(counts, args, result) -> None:
    counts["host.ios"] += sum(len(program) for program in args[1])


def _count_restore(counts, args, result) -> None:
    counts["snapshot.restore_calls"] += 1


def targets() -> list[tuple]:
    """``(owner, attribute, span name, counter)`` for every traced call."""
    from repro.analysis import summarize
    from repro.core import executor, generator, methodology
    from repro.flashsim import analytic, device, host, profiles

    return [
        (profiles.DeviceProfile, "build", "profiles.build", None),
        (methodology.StatePool, "ensure", "methodology.enforce", None),
        (executor.CampaignExecutor, "execute", "executor.execute", None),
        (executor.RunCache, "get_entry", "cache.get", None),
        (executor.RunCache, "put", "cache.put", None),
        (executor.RunCache, "spec_digest", "cache.digest", None),
        (device.FlashDevice, "restore", "snapshot.restore", _count_restore),
        (device.FlashDevice, "fingerprint", "snapshot.fingerprint", None),
        (generator.PatternGenerator, "__init__", "generator", _count_program),
        (generator.MixGenerator, "__init__", "generator", _count_program),
        (host.SyncHost, "run_program", "host", _count_host),
        (host.AsyncHost, "run_program", "host", _count_queued),
        (host.ParallelHost, "run_programs", "host", _count_parallel),
        (analytic, "write_window", "analytic", None),
        (analytic, "read_window", "analytic", None),
        (analytic, "run_program_queued", "analytic", None),
        (summarize, "summarize_device", "analysis", None),
    ]


class SpanRecorder:
    """Records spans around the layers' entry points while installed.

    ``spans`` holds ``[name, start, end, parent]`` lists (``parent`` is
    the index of the enclosing span, -1 at top level); ``counts`` holds
    the work counts the wrappers take at the same boundaries.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def reset(self) -> None:
        """Forget recorded spans and counts (one pass at a time)."""
        self.spans = []
        self.counts = Counter()

    def _wrap(self, name: str, fn, count):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(recorder.spans))
            recorder.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(recorder.counts, args, result)
            return result

        return traced

    def __enter__(self) -> "SpanRecorder":
        for owner, attribute, name, count in targets():
            original = vars(owner)[attribute]
            if isinstance(original, staticmethod):
                wrapper = staticmethod(self._wrap(name, original.__func__, count))
            else:
                wrapper = self._wrap(name, original, count)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def layer_times(spans: list[list], wall_s: float) -> dict[str, float]:
    """Inclusive and self times (seconds) per span name and layer.

    A span nested in a span of the same name (recursion) adds nothing
    to that name's inclusive time; self time never double counts.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    top_level = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        self_time[name.split(".")[0]] += duration - child_time[index]
        if parent < 0:
            top_level += duration
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] += duration
    self_time["bench"] = wall_s - top_level
    out = {metric: inclusive[name] for name, metric in INCLUSIVE.items()}
    out.update({f"{layer}.self_s": self_time[layer] for layer in LAYERS})
    return out
