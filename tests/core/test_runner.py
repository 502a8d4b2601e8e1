"""Execution of basic, mixed and parallel patterns through ``execute``."""

import pytest

from repro.core.patterns import (
    LocationKind,
    MixSpec,
    ParallelSpec,
    PatternSpec,
)
from repro.core.engine import execute, rest_device
from repro.iotypes import Mode
from repro.units import KIB, MIB

from tests.conftest import make_device


def sw_spec(io_count=16, **kwargs):
    defaults = dict(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_size=16 * KIB,
        io_count=io_count,
    )
    defaults.update(kwargs)
    return PatternSpec(**defaults)


def test_execute_produces_full_trace_and_stats():
    device = make_device()
    run = execute(device, sw_spec())
    assert len(run.trace) == 16
    assert run.stats.count == 16
    assert run.label == "SW"
    device.check_invariants()


def test_execute_applies_io_ignore():
    device = make_device()
    run = execute(device, sw_spec(io_count=16, io_ignore=4))
    assert run.stats.ignored == 4
    assert run.stats.count == 12


def test_restat_changes_the_cut():
    device = make_device()
    run = execute(device, sw_spec())
    again = run.restat(io_ignore=8)
    assert again.count == 8


def test_runs_follow_each_other_in_simulated_time():
    device = make_device()
    first = execute(device, sw_spec())
    second = execute(device, sw_spec(target_offset=512 * KIB))
    assert second.trace[0].submitted_at >= first.trace[-1].completed_at


def test_rest_device_advances_time_and_flushes_cache():
    device = make_device(cache_bytes=32 * 2 * KIB)
    execute(device, sw_spec(io_count=8))
    assert device.controller.cache.dirty_pages > 0
    horizon = device.busy_until
    rest_device(device, 1_000_000.0)
    assert device.busy_until >= horizon + 1_000_000.0
    assert device.controller.cache.dirty_pages == 0


def test_execute_mix_splits_component_stats():
    device = make_device()
    primary = PatternSpec(
        mode=Mode.READ, location=LocationKind.SEQUENTIAL, io_size=16 * KIB,
        io_count=16,
    )
    secondary = sw_spec(io_count=16, target_offset=512 * KIB)
    mix = MixSpec(primary=primary, secondary=secondary, ratio=3, io_count=32)
    result = execute(device, mix)
    assert result.stats.count == 32
    assert result.primary_stats.count == 24
    assert result.secondary_stats.count == 8
    assert result.label == "3 SR / 1 SW"


def test_execute_mix_respects_ignore():
    device = make_device()
    primary = PatternSpec(
        mode=Mode.READ, location=LocationKind.SEQUENTIAL, io_size=16 * KIB,
        io_count=16,
    )
    secondary = sw_spec(io_count=16, target_offset=512 * KIB)
    mix = MixSpec(
        primary=primary, secondary=secondary, ratio=1, io_count=16, io_ignore=8
    )
    result = execute(device, mix)
    assert result.stats.ignored == 8
    assert result.primary_stats.count + result.secondary_stats.count == 8


def test_execute_parallel_runs_all_processes():
    device = make_device()
    base = sw_spec(io_count=16, target_size=16 * 16 * KIB)
    result = execute(device, ParallelSpec(base=base, parallel_degree=4))
    assert len(result.runs) == 4
    assert all(len(run.trace) == 4 for run in result.runs)
    assert result.stats is not None
    assert result.stats.count == 16
    assert result.label == "SW x4"


def test_parallel_degree_one_equals_sync():
    parallel_device = make_device()
    base = sw_spec(io_count=16)
    parallel = execute(
        parallel_device, ParallelSpec(base=base, parallel_degree=1)
    )
    sync_device = make_device()
    solo = execute(sync_device, base)
    assert parallel.stats.mean_usec == pytest.approx(solo.stats.mean_usec)


def test_parallel_mix_runs_distinct_patterns_concurrently():
    from repro.core.patterns import ParallelMixSpec

    device = make_device()
    reads = PatternSpec(
        mode=Mode.READ, location=LocationKind.SEQUENTIAL, io_size=16 * KIB,
        io_count=12,
    )
    writes = sw_spec(io_count=12, target_offset=512 * KIB)
    result = execute(device, ParallelMixSpec((reads, writes)))
    assert len(result.runs) == 2
    assert result.runs[0].spec.mode is Mode.READ
    assert result.runs[1].spec.mode is Mode.WRITE
    assert result.stats.count == 24
    assert result.label == "SR || SW"
    # the two streams interleave on the single device queue
    all_ios = sorted(
        (c for run in result.runs for c in run.trace),
        key=lambda c: c.started_at,
    )
    modes = [c.request.mode for c in all_ios]
    assert Mode.READ in modes[:4] and Mode.WRITE in modes[:4]


def test_parallel_mix_requires_disjoint_components():
    from repro.core.patterns import ParallelMixSpec
    from repro.errors import PatternError

    overlapping = sw_spec(io_count=12)
    with pytest.raises(PatternError):
        ParallelMixSpec((overlapping, sw_spec(io_count=12)))
    with pytest.raises(PatternError):
        ParallelMixSpec((overlapping,))


def test_mix_component_without_measured_ios_has_none_stats():
    """A component with every IO inside the warm-up cut gets no summary
    (None), not a silent copy of the overall statistics."""
    device = make_device()
    primary = PatternSpec(
        mode=Mode.READ, location=LocationKind.SEQUENTIAL, io_size=16 * KIB,
        io_count=16,
    )
    secondary = sw_spec(io_count=16, target_offset=512 * KIB)
    # ratio=7, io_count=15: the only secondary IO is index 7, which the
    # warm-up cut (io_ignore=8) discards entirely
    mix = MixSpec(
        primary=primary, secondary=secondary, ratio=7, io_count=15, io_ignore=8
    )
    result = execute(device, mix)
    assert result.secondary_stats is None
    assert result.primary_stats is not None
    assert result.primary_stats.count == 7
    assert result.stats.count == 7
