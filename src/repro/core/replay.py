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

import numpy as np

from repro.core.stats import RunStats, summarize
from repro.errors import AnalysisError
from repro.flashsim.device import FlashDevice
from repro.flashsim.trace import IOTrace


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
    trace: IOTrace,
    mode: ReplayMode = ReplayMode.CLOSED_LOOP,
    io_ignore: int = 0,
) -> ReplayResult:
    """Replay ``trace`` (e.g. from :meth:`IOTrace.from_csv`) against
    ``device``.

    Every replayed extent must fit the target device; replaying a trace
    captured on a bigger device onto a smaller one raises (remap the
    LBAs first with :func:`remap_rows` if that is what you want).  Each
    IO is recorded with its recorded arrival offset (submit time
    relative to the first row) as its scheduled time.
    """
    if not len(trace):
        raise AnalysisError("cannot replay an empty trace")
    lbas = trace.column("lba").tolist()
    sizes = trace.column("size").tolist()
    writes = trace.column("write").tolist()
    submitted = trace.column("submitted_at").tolist()
    for lba, size in zip(lbas, sizes):
        if size <= 0 or lba < 0 or lba + size > device.capacity:
            raise AnalysisError(
                f"trace extent [{lba}, +{size}) does not fit the "
                f"target device's capacity {device.capacity}"
            )
    origin = submitted[0]
    start = device.busy_until
    timed = mode is ReplayMode.TIMED
    out = IOTrace(capacity=len(lbas))
    now = start
    for position, (lba, size, write, submitted_at) in enumerate(
        zip(lbas, sizes, writes, submitted)
    ):
        offset = submitted_at - origin
        submit_at = max(start + offset, start) if timed else now
        now = device.submit_into(out, position, lba, size, write, submit_at, offset)
    stats = summarize(out.response_times(), io_ignore)
    original_span = float(trace.column("completed_at")[-1]) - origin
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
    trace = IOTrace.from_csv(Path(path).read_text())
    return replay(device, trace, mode=mode, io_ignore=io_ignore)


def remap_rows(trace: IOTrace, target_capacity: int, align: int) -> IOTrace:
    """Fold a trace's LBAs into a smaller target capacity.

    Extents are wrapped modulo the largest ``align``-aligned prefix of
    the target space; sizes are preserved.  Useful for driving a trace
    captured on a large device against a scaled one — the pattern's
    *locality structure* changes, so treat results as approximate.
    Returns a new trace; every other column is copied unchanged.
    """
    if target_capacity < align or align <= 0:
        raise AnalysisError("target capacity must hold at least one aligned unit")
    usable = (target_capacity // align) * align
    sizes = np.minimum(trace.column("size"), usable)
    lbas = trace.column("lba") % usable
    np.minimum(lbas, usable - sizes, out=lbas)
    payload = trace.to_payload()
    payload["lba"] = lbas.tolist()
    payload["size"] = sizes.tolist()
    return IOTrace.from_payload(payload)
