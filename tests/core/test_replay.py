"""Trace replay across devices."""

import pytest

from repro.core.patterns import LocationKind, PatternSpec
from repro.core.replay import (
    ReplayMode,
    remap_rows,
    replay,
    replay_csv,
)
from repro.core.engine import execute
from repro.core.stats import summarize
from repro.errors import AnalysisError
from repro.flashsim.timing import TimingSpec
from repro.flashsim.trace import IOTrace
from repro.iotypes import IORequest, Mode
from repro.units import KIB, MIB

from tests.conftest import make_device


def capture_trace(device=None, io_count=24, timing=None):
    device = device or make_device(timing=timing)
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=io_count,
        target_size=512 * KIB,
        seed=4,
    )
    run = execute(device, spec)
    return IOTrace.from_csv(run.trace.to_csv())


def with_submit_times(trace, submitted):
    """A copy of ``trace`` with new submit times, responses kept."""
    payload = trace.to_payload()
    responses = trace.response_times().tolist()
    payload["submitted_at"] = list(submitted)
    payload["completed_at"] = [t + rt for t, rt in zip(submitted, responses)]
    return IOTrace.from_payload(payload)


def test_closed_loop_replay_reproduces_the_same_device():
    trace = capture_trace()
    target = make_device()
    result = replay(target, trace, mode=ReplayMode.CLOSED_LOOP)
    assert len(result.trace) == len(trace)
    # same device class, same workload: same-order spans
    assert result.speedup == pytest.approx(1.0, rel=0.3)
    lbas = [completed.request.lba for completed in result.trace]
    assert lbas == trace.column("lba").tolist()


def test_replay_onto_a_faster_device_speeds_up():
    slow_trace = capture_trace(timing=TimingSpec(transfer_per_kib=200.0))
    fast_target = make_device(timing=TimingSpec(transfer_per_kib=1.0))
    result = replay(fast_target, slow_trace)
    assert result.speedup > 2.0


def test_timed_replay_preserves_think_time():
    trace = capture_trace()
    # stretch the recorded arrival times far apart
    stretched = with_submit_times(
        trace, [index * 50_000.0 for index in range(len(trace))]
    )
    target = make_device()
    timed = replay(target, stretched, mode=ReplayMode.TIMED)
    closed = replay(make_device(), stretched, mode=ReplayMode.CLOSED_LOOP)
    assert timed.replay_span_usec > 5 * closed.replay_span_usec


def test_replay_rejects_oversized_extents():
    trace = capture_trace()
    tiny = make_device()
    oversized = remap_rows(trace, tiny.capacity, 16 * KIB)
    # remapped rows fit; the raw rows against a fake small capacity don't
    assert replay(tiny, oversized).stats.count == len(trace)
    from repro.flashsim.geometry import Geometry

    small = make_device(
        geometry=Geometry(
            page_size=2 * KIB, pages_per_block=8, logical_bytes=256 * KIB,
            physical_blocks=16 + 24,
        )
    )
    with pytest.raises(AnalysisError):
        replay(small, trace)


def test_remap_folds_lbas():
    trace = capture_trace()
    remapped = remap_rows(trace, 256 * KIB, 16 * KIB)
    ends = remapped.column("lba") + remapped.column("size")
    assert ends.max() <= 256 * KIB
    assert remapped.column("size").tolist() == trace.column("size").tolist()
    assert remapped.response_times().tolist() == trace.response_times().tolist()
    with pytest.raises(AnalysisError):
        remap_rows(trace, 1 * KIB, 16 * KIB)


def test_replay_empty_rejected():
    with pytest.raises(AnalysisError):
        replay(make_device(), IOTrace())


def test_replay_csv_round_trip(tmp_path):
    device = make_device()
    capture_trace(device)
    path = tmp_path / "trace.csv"
    # a second run on the same device, archived to disk
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=12,
        target_size=512 * KIB,
        seed=9,
    )
    run = execute(device, spec)
    run.trace.to_csv(path)
    result = replay_csv(make_device(), path)
    assert result.stats.count == 12


def test_replay_io_ignore():
    trace = capture_trace()
    result = replay(make_device(), trace, io_ignore=8)
    assert result.stats.ignored == 8
    assert result.stats.count == len(trace) - 8


def _submit_loop_replay(device, trace, timed):
    """Reference: replay as a per-IO :meth:`FlashDevice.submit` loop
    appending :class:`CompletedIO` objects to a trace."""
    origin = trace[0].submitted_at
    start = device.busy_until
    out = IOTrace()
    now = start
    for position, row in enumerate(trace):
        offset = row.submitted_at - origin
        request = IORequest(
            position, row.request.lba, row.request.size, row.request.mode, offset
        )
        completed = device.submit(
            request, max(start + offset, start) if timed else now
        )
        out.append(completed)
        now = completed.completed_at
    return out


@pytest.mark.parametrize("mode", list(ReplayMode))
def test_replay_matches_a_per_io_submit_loop(mode):
    trace = capture_trace(io_count=32)
    # think time between arrivals, so timed replay differs from closed
    trace = with_submit_times(
        trace,
        [t + i * 700.0 for i, t in enumerate(trace.column("submitted_at").tolist())],
    )
    target, twin = make_device(), make_device()
    result = replay(target, trace, mode=mode, io_ignore=4)
    reference = _submit_loop_replay(twin, trace, mode is ReplayMode.TIMED)
    assert result.trace.to_csv() == reference.to_csv()
    assert list(result.trace) == list(reference)
    assert result.stats == summarize(reference.response_times(), 4)
    assert result.replay_span_usec == (
        reference[-1].completed_at - reference[0].submitted_at
    )
    assert target.fingerprint() == twin.fingerprint()
