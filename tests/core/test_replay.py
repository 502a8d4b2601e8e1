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
    return IOTrace.parse_csv(run.trace.to_csv())


def test_closed_loop_replay_reproduces_the_same_device():
    rows = capture_trace()
    target = make_device()
    result = replay(target, rows, mode=ReplayMode.CLOSED_LOOP)
    assert len(result.trace) == len(rows)
    # same device class, same workload: same-order spans
    assert result.speedup == pytest.approx(1.0, rel=0.3)
    lbas = [completed.request.lba for completed in result.trace]
    assert lbas == [row.lba for row in rows]


def test_replay_onto_a_faster_device_speeds_up():
    slow_rows = capture_trace(timing=TimingSpec(transfer_per_kib=200.0))
    fast_target = make_device(timing=TimingSpec(transfer_per_kib=1.0))
    result = replay(fast_target, slow_rows)
    assert result.speedup > 2.0


def test_timed_replay_preserves_think_time():
    rows = capture_trace()
    # stretch the recorded arrival times far apart
    stretched = [
        type(row)(
            **{
                **row.__dict__,
                "submitted_at": index * 50_000.0,
                "completed_at": index * 50_000.0 + row.response_usec,
            }
        )
        for index, row in enumerate(rows)
    ]
    target = make_device()
    timed = replay(target, stretched, mode=ReplayMode.TIMED)
    closed = replay(make_device(), stretched, mode=ReplayMode.CLOSED_LOOP)
    assert timed.replay_span_usec > 5 * closed.replay_span_usec


def test_replay_rejects_oversized_extents():
    rows = capture_trace()
    tiny = make_device()
    oversized = remap_rows(rows, tiny.capacity, 16 * KIB)
    # remapped rows fit; the raw rows against a fake small capacity don't
    assert replay(tiny, oversized).stats.count == len(rows)
    from repro.flashsim.geometry import Geometry

    small = make_device(
        geometry=Geometry(
            page_size=2 * KIB, pages_per_block=8, logical_bytes=256 * KIB,
            physical_blocks=16 + 24,
        )
    )
    with pytest.raises(AnalysisError):
        replay(small, rows)


def test_remap_folds_lbas():
    rows = capture_trace()
    remapped = remap_rows(rows, 256 * KIB, 16 * KIB)
    for row in remapped:
        assert row.lba + row.size <= 256 * KIB
    with pytest.raises(AnalysisError):
        remap_rows(rows, 1 * KIB, 16 * KIB)


def test_replay_empty_rejected():
    with pytest.raises(AnalysisError):
        replay(make_device(), [])


def test_replay_csv_round_trip(tmp_path):
    device = make_device()
    rows = capture_trace(device)
    path = tmp_path / "trace.csv"
    trace = IOTrace()
    # re-run to get CompletedIO objects to serialise
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
    rows = capture_trace()
    result = replay(make_device(), rows, io_ignore=8)
    assert result.stats.ignored == 8
    assert result.stats.count == len(rows) - 8


def _submit_loop_replay(device, rows, timed):
    """Reference: replay as a per-IO :meth:`FlashDevice.submit` loop
    appending :class:`CompletedIO` objects to a trace."""
    origin = rows[0].submitted_at
    start = device.busy_until
    out = IOTrace()
    now = start
    for position, row in enumerate(rows):
        offset = row.submitted_at - origin
        request = IORequest(position, row.lba, row.size, row.mode, offset)
        completed = device.submit(
            request, max(start + offset, start) if timed else now
        )
        out.append(completed)
        now = completed.completed_at
    return out


@pytest.mark.parametrize("mode", list(ReplayMode))
def test_replay_matches_a_per_io_submit_loop(mode):
    rows = capture_trace(io_count=32)
    # think time between arrivals, so timed replay differs from closed
    rows = [
        type(row)(**{**row.__dict__, "submitted_at": row.submitted_at + i * 700.0})
        for i, row in enumerate(rows)
    ]
    target, twin = make_device(), make_device()
    result = replay(target, rows, mode=mode, io_ignore=4)
    reference = _submit_loop_replay(twin, rows, mode is ReplayMode.TIMED)
    assert result.trace.to_csv() == reference.to_csv()
    assert list(result.trace) == list(reference)
    assert result.stats == summarize(reference.response_times(), 4)
    assert result.replay_span_usec == (
        reference[-1].completed_at - reference[0].submitted_at
    )
    assert target.fingerprint() == twin.fingerprint()
