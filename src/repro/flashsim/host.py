"""Host-side IO submission model.

The paper submits IOs with **direct, synchronous** system calls so the
file system and disk scheduler cannot reorder or coalesce them
(Section 4.3).  The simulated equivalents:

* :class:`SyncHost` — one thread of control; each IO is submitted when
  the pattern's timing function says so and the host blocks until it
  completes.  ``os_overhead_usec`` models the system-call cost the
  paper cannot avoid even with direct IO.  Its loop
  (:func:`_run_synchronous`) is the only synchronous loop, for the
  kernels and the scalar oracle alike.

* :class:`ParallelHost` — the Parallelism micro-benchmark's
  ``ParallelDegree`` concurrent processes, each running its own
  pattern.  The device remains a single queue, so concurrent IOs
  serialise and each process observes queueing delay in its response
  times.  This is the machinery behind the paper's finding that
  parallel IO does not help flash devices (Hint 7).  Zero-gap
  processes are served round robin, which is one synchronous program
  run through the same loop; any other run takes an event loop that
  always advances the process with the earliest next submission time.

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

from repro.errors import ReproError
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
        """Drive a precomputed :class:`~repro.core.generator.IOProgram`
        through the synchronous loop (:func:`_run_synchronous`) and
        return its columnar :class:`~repro.flashsim.trace.IOTrace`."""
        trace = IOTrace(capacity=len(program))
        _run_synchronous(
            self.device, trace, program.lbas, program.sizes, program.writes,
            program.gaps, start_at, self.os_overhead_usec,
        )
        return trace


def _run_synchronous(
    device: FlashDevice, trace: IOTrace, lbas, sizes, writes, gaps,
    start_at: float, overhead: float,
) -> None:
    """The synchronous loop over a program's columns, recording IO
    ``i`` at row ``i`` of ``trace``.

    IO ``i`` is scheduled at the previous completion plus its gap
    (``start_at`` for the first) and submitted once the host is free.

    A program that passes
    :func:`~repro.flashsim.analytic.program_stretches` offers each read
    or write stretch of ``MIN_KERNEL_STRETCH`` IOs to the closed-form
    ``analytic.write_window`` or ``read_window``.  A short stretch, the
    rest of a stretch whose write window declined and the one IO a read
    window refused take the per-IO step (:func:`_submit`).  Any other
    program — host overhead, a declined device, the ``NoFaults`` oracle
    — is the same loop with every window declined.
    """
    count = len(lbas)
    if not count:
        return
    gaps = gaps.astype(np.float64)
    gaps[0] = 0.0  # the first IO is scheduled at start_at
    columns = (lbas, sizes, writes, gaps)
    ends = analytic.program_stretches(device, writes, start_at, overhead)
    if ends is None:
        _submit(device, overhead, trace, columns, 0, count, start_at)
        return
    clock = start_at
    i = 0
    for end in ends.tolist():
        if end - i < analytic.MIN_KERNEL_STRETCH:
            analytic.STATS.decline("program:short-stretch")
            clock = _submit(device, overhead, trace, columns, i, end, clock)
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
            # stretch to the per-IO step; a read window may take over
            # again once pending background work finishes
            stop = end if write else i + 1
            clock = _submit(device, overhead, trace, columns, i, stop, clock)
            i = stop


def _submit(
    device: FlashDevice, overhead: float, trace: IOTrace, columns,
    start: int, stop: int, clock: float,
) -> float:
    """The per-IO step over rows ``start`` up to ``stop`` of the
    program ``columns``, from ``clock``; returns the last completion."""
    lbas, sizes, writes, gaps = (column[start:stop].tolist() for column in columns)
    submit_into = device.submit_into
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
    service.  The event loop picks, among ready processes, the one whose
    next IO has the earliest effective submission time; ties always go
    to the lowest process index (a deterministic total order, so runs
    are reproducible).  On a consecutive-timing pattern each process is
    ready the instant its previous IO completes, so that order comes out
    round robin — the lowest index first, finished processes dropping
    out — and the host runs the merged order as one synchronous program
    instead, through :class:`SyncHost`'s loop, and splits its trace back
    per process (:meth:`_run_merged`).
    """

    def __init__(self, device: FlashDevice, os_overhead_usec: float = 0.0) -> None:
        self.device = device
        self.os_overhead_usec = os_overhead_usec

    def run_programs(
        self, programs: Sequence["IOProgram"], start_at: float = 0.0
    ) -> list[IOTrace]:
        """Drive precomputed programs concurrently, one per process.

        A run that :meth:`_merge_reason` lets through is one merged
        synchronous program.  Any other run counts one
        ``parallel:<reason>`` decline and takes the event loop: each
        step submits the next IO of the process with the earliest
        effective submission time (lowest index on ties) and records it
        straight into that process's columnar trace.  The event loop is
        also the oracle the merged run is tested against.
        """
        reason = self._merge_reason(programs)
        if reason is None:
            return self._run_merged(programs, start_at)
        analytic.STATS.decline(f"parallel:{reason}")
        states = [_ProgramState(program, start_at) for program in programs]
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

    def _merge_reason(self, programs: Sequence["IOProgram"]) -> str | None:
        """Why a run must take the event loop (None = it may run merged)."""
        device = self.device
        if device.chip.reference:
            # the NoFaults oracle twin keeps the reference loop
            return "fault-injector"
        if device.attribution:
            # an IO's attributed wait counts from its own submission
            return "attribution"
        if self.os_overhead_usec != 0.0:
            # each submission lags its process's previous completion
            return "os-overhead"
        if any(bool(program.gaps[1:].any()) for program in programs):
            return "paced"
        if not device.timing.controller_overhead > 0.0:
            # a zero-cost IO ties two processes' ready times, and the
            # event loop breaks ties by index, not round robin
            return "zero-overhead"
        return None

    def _run_merged(
        self, programs: Sequence["IOProgram"], start_at: float
    ) -> list[IOTrace]:
        """Run the processes' round-robin merge as one synchronous
        program and split its trace back per process.

        A merged IO is submitted at the previous merged completion, the
        event loop's at its own process's previous completion; both
        start it at the same instant.  Of the device's state only the
        queue-wait counters see the difference, so the waits fold into
        them afterwards (:func:`_fold_waits`) and each process's rows
        are scheduled and submitted at its own previous completion.
        """
        device = self.device
        counts = np.array([len(program) for program in programs], dtype=np.int64)
        total = int(counts.sum())
        if not total:
            return [IOTrace() for _program in programs]
        firsts = np.cumsum(counts) - counts
        process = np.repeat(np.arange(counts.size), counts)
        position = np.arange(total) - firsts[process]
        # merged row -> concatenated row: position first, then process
        order = np.lexsort((process, position))
        merged_row = np.empty(total, dtype=np.int64)
        merged_row[order] = np.arange(total)
        # each merged IO's predecessor in its own process (-1: none)
        previous = np.where(position[order] > 0, merged_row[order - 1], -1)
        lbas, sizes, writes = (
            np.concatenate([getattr(program, name) for program in programs])[order]
            for name in ("lbas", "sizes", "writes")
        )
        trace = IOTrace(capacity=total)
        try:
            _run_synchronous(
                device, trace, lbas, sizes, writes, np.zeros(total), start_at, 0.0
            )
        except ReproError:
            # the event loop had counted the wait of every IO served and
            # of the failing one too, once its address checked out
            served = len(trace)
            if served < total and device.geometry.contains(
                int(lbas[served]), int(sizes[served])
            ):
                served += 1
            _fold_waits(device, trace, previous[:served], start_at)
            raise
        submitted = _fold_waits(device, trace, previous, start_at)
        traces = []
        for first, count in zip(firsts.tolist(), counts.tolist()):
            rows = merged_row[first:first + count]
            traces.append(trace.take(rows, submitted[rows]))
        return traces


def _fold_waits(
    device: FlashDevice, trace: IOTrace, previous: np.ndarray, start_at: float
) -> np.ndarray:
    """Count the queue waits of the first ``len(previous)`` merged IOs
    as the event loop's dispatches would, and return their submission
    times there.

    The event loop submits an IO at the completion of its predecessor
    in its own process (``previous``; -1 for a process's first IO,
    submitted at ``start_at``) and starts merged IO *m* >= 1 at merged
    IO *m-1*'s completion.  The merged run counted IO 0's wait itself;
    the last IO may be a failed one with no row in ``trace``.
    """
    completed = trace.column("completed_at")
    count = previous.size
    if count < 2:
        return np.full(count, start_at)
    submitted = np.where(previous >= 0, completed[np.maximum(previous, 0)], start_at)
    waits = completed[: count - 1] - submitted[1:]
    queued = waits[waits > 0.0]
    stats = device.stats
    queue_wait = stats.queue_wait_usec
    for usec in queued.tolist():
        queue_wait += usec
    stats.queued_ios += int(queued.size)
    stats.queue_wait_usec = queue_wait
    return submitted


class _ProgramState:
    """Per-process cursor inside :meth:`ParallelHost.run_programs`'s
    event loop."""

    __slots__ = (
        "lbas", "sizes", "writes", "gaps",
        "count", "position", "blocked_until", "scheduled", "trace",
    )

    def __init__(self, program: "IOProgram", start_at: float) -> None:
        self.lbas = program.lbas.tolist()
        self.sizes = program.sizes.tolist()
        self.writes = program.writes.tolist()
        self.gaps = program.gaps.tolist()
        self.count = len(program)
        self.position = 0
        self.blocked_until = start_at
        self.scheduled = start_at
        self.trace = IOTrace(capacity=self.count)
