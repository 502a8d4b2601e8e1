"""Host models: synchronous feedback-driven submission, parallel event
loop, serialization on the single device queue."""

import numpy as np
import pytest

from repro.core.generator import IOProgram
from repro.flashsim.host import ParallelHost, SyncHost
from repro.units import KIB

from tests.conftest import make_device


def program(count, stride=8 * KIB, start=0, gaps=None):
    """``count`` 8 KiB writes at ``start + i * stride``, back to back
    unless ``gaps`` (the pause before each IO) says otherwise."""
    return IOProgram(
        lbas=start + np.arange(count, dtype=np.int64) * stride,
        sizes=np.full(count, 8 * KIB, dtype=np.int64),
        writes=np.ones(count, dtype=np.bool_),
        gaps=np.zeros(count) if gaps is None else np.asarray(gaps, dtype=float),
    )


def test_sync_host_runs_feed_to_exhaustion():
    device = make_device()
    trace = SyncHost(device).run_program(program(5))
    assert len(trace) == 5
    assert trace.column("index").tolist() == list(range(5))
    # consecutive: each IO starts when the previous completes
    for earlier, later in zip(trace, trace[1:]):
        assert later.started_at >= earlier.completed_at


def test_sync_host_os_overhead_delays_submission():
    base_end = SyncHost(make_device()).run_program(program(3))[-1].completed_at
    host = SyncHost(make_device(), os_overhead_usec=100.0)
    delayed = host.run_program(program(3))
    assert delayed[-1].completed_at == pytest.approx(base_end + 300.0)
    # the overhead delays submission, not the scheduled time
    assert delayed[0].request.scheduled_at == 0.0
    assert delayed[0].submitted_at == 100.0


def test_sync_host_respects_scheduled_times():
    device = make_device()
    trace = SyncHost(device).run_program(program(1), start_at=5_000.0)
    assert trace[0].submitted_at >= 5_000.0
    # a gap schedules the next IO that long after the previous completion
    paced = SyncHost(make_device()).run_program(program(3, gaps=[0.0, 250.0, 250.0]))
    for earlier, later in zip(paced, paced[1:]):
        assert later.request.scheduled_at == earlier.completed_at + 250.0
        assert later.submitted_at == later.request.scheduled_at


def test_parallel_host_serialises_on_the_device():
    device = make_device()
    host = ParallelHost(device)
    per_process = host.run_programs([program(4), program(4, start=256 * KIB)])
    assert [len(trace) for trace in per_process] == [4, 4]
    everything = sorted(
        (c for trace in per_process for c in trace),
        key=lambda c: c.started_at,
    )
    # no two IOs overlap in service
    for earlier, later in zip(everything, everything[1:]):
        assert later.started_at >= earlier.completed_at - 1e-9


def test_parallel_host_no_throughput_gain():
    """Hint 7's physics: total time with 2 processes equals the solo
    total — a single queue gains nothing from parallel submission."""
    solo = SyncHost(make_device()).run_program(program(8))
    solo_span = solo[-1].completed_at - solo[0].submitted_at

    host = ParallelHost(make_device())
    per_process = host.run_programs([program(4), program(4, start=256 * KIB)])
    par_end = max(c.completed_at for trace in per_process for c in trace)
    assert par_end >= solo_span * 0.9


def test_parallel_response_times_include_queueing():
    host = ParallelHost(make_device())
    per_process = host.run_programs([program(4), program(4, start=256 * KIB)])
    queued = [
        c
        for trace in per_process
        for c in trace
        if c.response_usec > c.service_usec + 1e-9
    ]
    assert queued  # someone always waits behind the other process


def _identical_programs(processes=3, per_process=4):
    return [program(per_process, start=p * 256 * KIB) for p in range(processes)]


def test_parallel_host_run_programs_is_deterministic():
    """Identical inputs on identical devices replay identically — the
    scheduler has no hidden state or iteration-order dependence."""
    first = ParallelHost(make_device()).run_programs(_identical_programs())
    second = ParallelHost(make_device()).run_programs(_identical_programs())
    assert [trace.to_csv() for trace in first] == [
        trace.to_csv() for trace in second
    ]


def test_parallel_host_ties_go_to_the_lowest_index_process():
    """All processes ready at t=0: submission order is process order
    (the documented lowest-index tie-break, not a rotating pick)."""
    traces = ParallelHost(make_device()).run_programs(_identical_programs())
    first_starts = [trace[0].started_at for trace in traces]
    assert first_starts == sorted(first_starts)
    assert len(set(first_starts)) == len(first_starts)
