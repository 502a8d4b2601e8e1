"""Trace replay: re-execute an archived IO trace against a device.

The paper publishes per-IO traces (tens of millions of data points) so
others can re-analyse them; replay closes the loop — a trace captured
on one (simulated) device can be driven against another, preserving
either the *arrival pattern* (submit at the recorded times, an open-loop
replay) or the *dependency pattern* (each IO after the previous
completes, a closed-loop replay like the original synchronous host).

This enables what-if runs the paper's Section 5.3 hints motivate:
"what would my workload cost on the Memoright instead of the DTI?"
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.core.stats import RunStats, summarize
from repro.errors import AnalysisError
from repro.flashsim.device import FlashDevice
from repro.flashsim.trace import IOTrace, TraceRow
from repro.iotypes import Mode


class ReplayMode(enum.Enum):
    """How submit times are derived during replay."""

    #: submit at the recorded timestamps, shifted to start at zero — the
    #: workload's own think time is preserved (open loop)
    TIMED = "timed"
    #: each IO submits when the previous completes — the synchronous
    #: closed loop the paper's host used
    CLOSED_LOOP = "closed-loop"


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying one trace."""

    mode: ReplayMode
    trace: IOTrace
    stats: RunStats
    original_span_usec: float
    replay_span_usec: float

    @property
    def speedup(self) -> float:
        """Original span / replay span (>1: the target device is faster)."""
        if self.replay_span_usec <= 0:
            return float("inf")
        return self.original_span_usec / self.replay_span_usec


def replay(
    device: FlashDevice,
    rows: Sequence[TraceRow],
    mode: ReplayMode = ReplayMode.CLOSED_LOOP,
    io_ignore: int = 0,
) -> ReplayResult:
    """Replay ``rows`` against ``device``.

    Every replayed extent must fit the target device; replaying a trace
    captured on a bigger device onto a smaller one raises (remap the
    LBAs first if that is what you want).  Each IO is recorded with its
    recorded arrival offset (submit time relative to the first row) as
    its scheduled time.
    """
    if not rows:
        raise AnalysisError("cannot replay an empty trace")
    for row in rows:
        if row.size <= 0 or row.lba < 0 or row.lba + row.size > device.capacity:
            raise AnalysisError(
                f"trace extent [{row.lba}, +{row.size}) does not fit the "
                f"target device's capacity {device.capacity}"
            )
    origin = rows[0].submitted_at
    start = device.busy_until
    timed = mode is ReplayMode.TIMED
    out = IOTrace(capacity=len(rows))
    now = start
    for position, row in enumerate(rows):
        offset = row.submitted_at - origin
        submit_at = max(start + offset, start) if timed else now
        now = device.submit_into(
            out, position, row.lba, row.size, row.mode is Mode.WRITE,
            submit_at, offset,
        )
    stats = summarize(out.response_times(), io_ignore)
    original_span = rows[-1].completed_at - rows[0].submitted_at
    replay_span = out[-1].completed_at - out[0].submitted_at
    return ReplayResult(
        mode=mode,
        trace=out,
        stats=stats,
        original_span_usec=original_span,
        replay_span_usec=replay_span,
    )


def replay_csv(
    device: FlashDevice,
    path: str | Path,
    mode: ReplayMode = ReplayMode.CLOSED_LOOP,
    io_ignore: int = 0,
) -> ReplayResult:
    """Replay a trace archived with :meth:`IOTrace.to_csv`."""
    return replay(device, IOTrace.load_csv(path), mode=mode, io_ignore=io_ignore)


def remap_rows(
    rows: Sequence[TraceRow], target_capacity: int, align: int
) -> list[TraceRow]:
    """Fold a trace's LBAs into a smaller target capacity.

    Extents are wrapped modulo the largest ``align``-aligned prefix of
    the target space; sizes are preserved.  Useful for driving a trace
    captured on a large device against a scaled one — the pattern's
    *locality structure* changes, so treat results as approximate.
    """
    if target_capacity < align or align <= 0:
        raise AnalysisError("target capacity must hold at least one aligned unit")
    usable = (target_capacity // align) * align
    remapped = []
    for row in rows:
        size = min(row.size, usable)
        lba = row.lba % usable
        if lba + size > usable:
            lba = usable - size
        remapped.append(
            TraceRow(
                index=row.index,
                mode=row.mode,
                lba=lba,
                size=size,
                submitted_at=row.submitted_at,
                started_at=row.started_at,
                completed_at=row.completed_at,
                response_usec=row.response_usec,
                page_reads=row.page_reads,
                page_programs=row.page_programs,
                copy_reads=row.copy_reads,
                copy_programs=row.copy_programs,
                block_erases=row.block_erases,
                notes=row.notes,
            )
        )
    return remapped
