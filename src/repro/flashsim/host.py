"""Host-side IO submission model.

The paper submits IOs with **direct, synchronous** system calls so the
file system and disk scheduler cannot reorder or coalesce them
(Section 4.3).  The simulated equivalents:

* :class:`SyncHost` — one thread of control; each IO is submitted when
  the pattern's timing function says so and the host blocks until it
  completes.  ``os_overhead_usec`` models the system-call cost the
  paper cannot avoid even with direct IO.  Its ``run_program`` is the
  only synchronous loop, for the kernels and the scalar oracle alike.

* :class:`ParallelHost` — the Parallelism micro-benchmark's
  ``ParallelDegree`` concurrent processes, each running its own
  pattern.  An event loop always advances the process with the earliest
  next submission time; the device itself remains a single queue, so
  concurrent IOs serialise and each process observes queueing delay in
  its response times.  This is the machinery behind the paper's finding
  that parallel IO does not help flash devices (Hint 7).

* :class:`AsyncHost` — an extension beyond the paper: one process
  keeping the device's NCQ-style command queue full (up to a queue
  depth), so IOs overlap across the device's channels.  At queue depth
  1 it is bit-identical to :class:`SyncHost`; paced patterns preserve
  the feedback recurrence (the pause before IO *i* counts from IO
  *i-1*'s completion) by waiting for that completion before submitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.flashsim import analytic
from repro.flashsim.device import FlashDevice
from repro.flashsim.trace import IOTrace

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.generator import IOProgram


@dataclass
class SyncHost:
    """Synchronous, direct-IO submission from a single process."""

    device: FlashDevice
    os_overhead_usec: float = 0.0

    def run_program(
        self, program: "IOProgram", start_at: float = 0.0
    ) -> IOTrace:
        """Drive a precomputed :class:`~repro.core.generator.IOProgram`.

        IO ``i`` is scheduled at the previous completion plus its gap
        (``start_at`` for the first), submitted once the host is free,
        and recorded straight into a columnar
        :class:`~repro.flashsim.trace.IOTrace`.

        A program that passes
        :func:`~repro.flashsim.analytic.program_stretches` offers each
        read or write stretch of ``MIN_KERNEL_STRETCH`` IOs to the
        closed-form ``analytic.write_window`` or ``read_window``.  A
        short stretch, the rest of a stretch whose write window
        declined and the one IO a read window refused take the per-IO
        step (:meth:`_submit`).  Any other program — host overhead, a
        declined device, the ``NoFaults`` oracle — is the same loop
        with every window declined.
        """
        count = len(program)
        trace = IOTrace(capacity=count)
        if not count:
            return trace
        device = self.device
        lbas, sizes, writes = program.lbas, program.sizes, program.writes
        gaps = program.gaps.astype(np.float64)
        gaps[0] = 0.0  # the first IO is scheduled at start_at
        columns = (lbas, sizes, writes, gaps)
        ends = analytic.program_stretches(
            device, program, start_at, self.os_overhead_usec
        )
        if ends is None:
            self._submit(trace, columns, 0, count, start_at)
            return trace
        clock = start_at
        i = 0
        for end in ends.tolist():
            if end - i < analytic.MIN_KERNEL_STRETCH:
                analytic.STATS.decline("program:short-stretch")
                clock = self._submit(trace, columns, i, end, clock)
                i = end
                continue
            write = bool(writes[i])
            window = analytic.write_window if write else analytic.read_window
            while i < end:
                done, after = window(
                    device, lbas[i:end], sizes[i:end], clock,
                    trace=trace, row0=i, gaps=gaps[i:end],
                )
                if done:
                    i += done
                    clock = after
                    continue
                # a write window runs to its stretch's end or to a bad
                # address, so a declined one leaves the rest of the
                # stretch to the per-IO step; a read window may take
                # over again once pending background work finishes
                stop = end if write else i + 1
                clock = self._submit(trace, columns, i, stop, clock)
                i = stop
        return trace

    def _submit(self, trace, columns, start: int, stop: int, clock: float) -> float:
        """The per-IO step over rows ``start`` up to ``stop`` of the
        program ``columns``, from ``clock``; returns the last completion."""
        lbas, sizes, writes, gaps = (column[start:stop].tolist() for column in columns)
        submit_into = self.device.submit_into
        overhead = self.os_overhead_usec
        row = start
        for lba, size, write, gap in zip(lbas, sizes, writes, gaps):
            scheduled = clock + gap
            clock = submit_into(
                trace, row, lba, size, write,
                max(clock, scheduled) + overhead, scheduled,
            )
            row += 1
        return clock


@dataclass
class AsyncHost:
    """Asynchronous submission: keep the device queue full.

    Runs an :class:`~repro.core.generator.IOProgram` with up to
    ``queue_depth`` IOs in flight (the :meth:`run_program` argument,
    else the program's own, clamped to the device's queue depth).
    Consecutive IOs submit back-to-back without waiting;
    paced IOs (a positive inter-IO gap) wait for the *previous* IO's
    completion first, because the pattern's submit-time recurrence
    ``t(IOi) = t(IOi-1) + rt(IOi-1) + Pause`` (Table 1) is defined on
    response times — so Pause patterns stay effectively synchronous and
    Burst patterns overlap only within a burst.

    Completions may pop out of submission order; each is recorded at
    ``row = submission index``, so the trace is in submission order and
    byte-identical CSV regardless of the completion interleaving.

    Zero-gap programs of one mode on qualifying devices first try the
    queued kernel (:func:`~repro.flashsim.analytic.run_program_queued`),
    which evaluates the whole submit/pop schedule from closed-form read
    services or the page-map write pass; it returns ``False`` with no
    state touched when the program or device disqualifies, and this
    loop runs.
    """

    device: FlashDevice
    os_overhead_usec: float = 0.0

    def run_program(
        self,
        program: "IOProgram",
        start_at: float = 0.0,
        queue_depth: int | None = None,
    ) -> IOTrace:
        """Drive a precomputed program with queued submission."""
        requested = program.queue_depth if queue_depth is None else queue_depth
        depth = max(1, min(int(requested), self.device.queue_depth))
        count = len(program)
        trace = IOTrace(capacity=count)
        if analytic.run_program_queued(
            self.device, program, trace, start_at, self.os_overhead_usec, depth
        ):
            return trace
        lbas = program.lbas.tolist()
        sizes = program.sizes.tolist()
        writes = program.writes.tolist()
        gaps = program.gaps.tolist()
        completed: list[float | None] = [None] * count
        device = self.device
        overhead = self.os_overhead_usec
        clock = start_at
        i = 0
        in_flight = 0
        while i < count or in_flight:
            ready = i < count and in_flight < depth
            if ready and i > 0 and gaps[i] > 0.0 and completed[i - 1] is None:
                ready = False  # paced: the gap counts from rt(IOi-1)
            if ready:
                if i == 0:
                    scheduled = start_at
                elif gaps[i] > 0.0:
                    scheduled = completed[i - 1] + gaps[i]
                else:
                    scheduled = clock
                clock = max(clock, scheduled)
                device.submit_async(
                    lbas[i], sizes[i], writes[i],
                    clock + overhead, tag=i, scheduled_at=scheduled,
                )
                in_flight += 1
                i += 1
            else:
                entry = device.pop_next_completion()
                trace.record(
                    entry.tag, entry.lba, entry.size, entry.write,
                    entry.scheduled_at, entry.submitted_at,
                    entry.started_at, entry.completed_at, entry.cost,
                )
                completed[entry.tag] = entry.completed_at
                if entry.completed_at > clock:
                    clock = entry.completed_at
                in_flight -= 1
        return trace


class ParallelHost:
    """``ParallelDegree`` processes issuing synchronous IO concurrently.

    Each process blocks on its own outstanding IO; the device serialises
    service.  The loop picks, among ready processes, the one whose next
    IO has the earliest effective submission time; ties always go to the
    lowest process index (a deterministic total order, so runs are
    reproducible).  On a consecutive-timing pattern each process is
    ready the instant its previous IO completes, so that order comes out
    round robin — the lowest index first, finished processes dropping
    out — and :func:`~repro.flashsim.analytic.run_programs_parallel`
    serves such runs as one merged closed-form window, split back per
    process.  Anything else (gaps, mixed modes, OS overhead, ...) runs
    the event loop below.
    """

    def __init__(self, device: FlashDevice, os_overhead_usec: float = 0.0) -> None:
        self.device = device
        self.os_overhead_usec = os_overhead_usec

    def run_programs(
        self, programs: Sequence["IOProgram"], start_at: float = 0.0
    ) -> list[IOTrace]:
        """Drive precomputed programs concurrently, one per process.

        Each step submits the next IO of the process with the earliest
        effective submission time (lowest index on ties) and records it
        straight into that process's columnar trace.  The parallel
        kernel is tried first; it returns ``False`` with no state (and
        no trace) touched when the run disqualifies.
        """
        traces = [IOTrace(capacity=len(program)) for program in programs]
        if analytic.run_programs_parallel(
            self.device, programs, traces, start_at, self.os_overhead_usec
        ):
            return traces
        states = [
            _ProgramState(program, start_at, trace)
            for program, trace in zip(programs, traces)
        ]
        submit_into = self.device.submit_into
        overhead = self.os_overhead_usec
        while True:
            best: _ProgramState | None = None
            best_time = float("inf")
            for state in states:
                if state.position >= state.count:
                    continue
                ready_at = max(state.blocked_until, state.scheduled)
                if ready_at < best_time:
                    best_time = ready_at
                    best = state
            if best is None:
                return [state.trace for state in states]
            position = best.position
            completion = submit_into(
                best.trace, position, best.lbas[position],
                best.sizes[position], best.writes[position],
                best_time + overhead, best.scheduled,
            )
            best.blocked_until = completion
            best.position = position + 1
            if best.position < best.count:
                best.scheduled = completion + best.gaps[best.position]


class _ProgramState:
    """Per-process cursor inside :meth:`ParallelHost.run_programs`."""

    __slots__ = (
        "lbas", "sizes", "writes", "gaps",
        "count", "position", "blocked_until", "scheduled", "trace",
    )

    def __init__(
        self, program: "IOProgram", start_at: float, trace: IOTrace
    ) -> None:
        self.lbas = program.lbas.tolist()
        self.sizes = program.sizes.tolist()
        self.writes = program.writes.tolist()
        self.gaps = program.gaps.tolist()
        self.count = len(program)
        self.position = 0
        self.blocked_until = start_at
        self.scheduled = start_at
        self.trace = trace
