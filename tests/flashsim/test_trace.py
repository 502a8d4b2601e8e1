"""IOTrace: recording and CSV round-trip."""

from repro.flashsim.trace import IOTrace
from repro.iotypes import IORequest, Mode
from repro.units import KIB

from tests.conftest import make_device


def run_some_ios(count=6):
    device = make_device()
    trace = IOTrace()
    now = 0.0
    for i in range(count):
        done = device.submit(IORequest(i, i * 8 * KIB, 8 * KIB, Mode.WRITE), now)
        trace.append(done)
        now = done.completed_at
    return trace


def test_append_and_iterate():
    trace = run_some_ios(4)
    assert len(trace) == 4
    assert [c.request.index for c in trace] == [0, 1, 2, 3]
    assert trace[2].request.lba == 16 * KIB


def test_response_times_in_order():
    trace = run_some_ios(4)
    responses = trace.response_times()
    assert len(responses) == 4
    assert all(rt > 0 for rt in responses)


def test_csv_round_trip(tmp_path):
    trace = run_some_ios(5)
    path = tmp_path / "trace.csv"
    text = trace.to_csv(path)
    assert path.read_text() == text
    rows = IOTrace.from_csv(path.read_text())
    assert len(rows) == 5
    for completed, row in zip(trace, rows):
        assert row.request.index == completed.request.index
        assert row.request.lba == completed.request.lba
        assert row.request.size == completed.request.size
        assert row.request.mode is Mode.WRITE
        assert row.response_usec == round(completed.response_usec, 3)
        assert row.cost.page_programs == completed.cost.page_programs


def test_csv_preserves_notes():
    trace = run_some_ios(3)
    trace[0].cost.note("switch-merge")
    rows = IOTrace.from_csv(trace.to_csv())
    assert "switch-merge" in rows[0].cost.notes


def test_csv_round_trips_multiple_notes_as_tuple():
    trace = run_some_ios(3)
    trace[0].cost.note("switch-merge")
    trace[0].cost.note("gc")
    rows = IOTrace.from_csv(trace.to_csv())
    assert rows[0].cost.notes == ["switch-merge", "gc"]
    empty = [row.cost.notes for row in rows if not row.cost.notes]
    assert empty and all(notes == [] for notes in empty)


def test_extend():
    """Appending another trace's rows extends it row by row."""
    trace = run_some_ios(2)
    other = IOTrace()
    for completed in trace:
        other.append(completed)
    assert len(other) == 2
    assert list(other) == list(trace)
