"""Timing model: spec validation, cost accumulation, parallelism split."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.flashsim.timing import (
    MLC_TIMING,
    SLC_TIMING,
    CostAccumulator,
    TimingSpec,
)
from repro.units import KIB


def test_presets_ordering():
    # MLC chips are slower on every axis (Section 2.1)
    assert MLC_TIMING.read_page > SLC_TIMING.read_page
    assert MLC_TIMING.program_page > SLC_TIMING.program_page
    assert MLC_TIMING.erase_block > SLC_TIMING.erase_block


@pytest.mark.parametrize(
    "kwargs",
    [
        {"read_page": -1.0},
        {"transfer_per_kib": -0.1},
        {"parallelism": 0.5},
        {"copy_parallelism": 0.0},
        {"copy_page_extra": -5.0},
    ],
)
def test_invalid_timing_rejected(kwargs):
    with pytest.raises(ValueError):
        TimingSpec(**kwargs)


def test_transfer_scales_with_bytes():
    timing = TimingSpec(transfer_per_kib=10.0)
    assert timing.transfer(1 * KIB) == pytest.approx(10.0)
    assert timing.transfer(32 * KIB) == pytest.approx(320.0)


def test_host_parallelism_divides_flash_ops():
    timing = TimingSpec(read_page=100.0, program_page=200.0, parallelism=4.0)
    assert timing.read_pages(8) == pytest.approx(200.0)
    assert timing.program_pages(8) == pytest.approx(400.0)


def test_copy_path_uses_copy_parallelism_and_extra():
    timing = TimingSpec(
        read_page=100.0,
        program_page=200.0,
        parallelism=16.0,
        copy_parallelism=2.0,
        copy_page_extra=50.0,
    )
    # copies ignore the striped host parallelism
    assert timing.copy_pages(4, 4) == pytest.approx((400.0 + 1000.0) / 2.0)


def test_erase_uses_copy_parallelism():
    timing = TimingSpec(erase_block=1000.0, copy_parallelism=2.0)
    assert timing.erase_blocks(3) == pytest.approx(1500.0)


def test_cost_accumulator_total():
    timing = TimingSpec(
        read_page=10.0,
        program_page=20.0,
        erase_block=100.0,
        transfer_per_kib=1.0,
        controller_overhead=5.0,
        map_miss=7.0,
    )
    cost = CostAccumulator(
        page_reads=2,
        page_programs=3,
        block_erases=1,
        bytes_transferred=4 * KIB,
        map_misses=1,
        extra_usec=0.5,
    )
    expected = 20.0 + 60.0 + 100.0 + 4.0 + 7.0 + 0.5 + 5.0
    assert cost.total(timing) == pytest.approx(expected)
    assert cost.total(timing, include_overhead=False) == pytest.approx(expected - 5.0)


def test_cost_accumulator_add_merges_everything():
    a = CostAccumulator(page_reads=1, copy_reads=2, notes=["x"])
    b = CostAccumulator(page_programs=3, copy_programs=4, block_erases=1, notes=["y"])
    a.add(b)
    assert (a.page_reads, a.page_programs) == (1, 3)
    assert (a.copy_reads, a.copy_programs) == (2, 4)
    assert a.block_erases == 1
    assert a.notes == ["x", "y"]


def test_is_empty():
    assert CostAccumulator().is_empty()
    assert not CostAccumulator(page_reads=1).is_empty()
    assert not CostAccumulator(extra_usec=0.1).is_empty()


def test_note_records_tags():
    cost = CostAccumulator()
    cost.note("full-merge")
    assert cost.notes == ["full-merge"]


# ----------------------------------------------------------------------
# channels / planes decomposition
# ----------------------------------------------------------------------

def test_channels_derived_from_parallelism():
    timing = TimingSpec(parallelism=16.0)
    assert timing.channels == 16
    assert timing.planes == 1


def test_channels_derived_with_planes():
    timing = TimingSpec(parallelism=16.0, planes=2)
    assert timing.channels == 8


def test_explicit_channels_set_parallelism_alias():
    timing = TimingSpec(channels=4, planes=2)
    assert timing.parallelism == 8.0
    # cost formulas divide by the alias exactly as before
    legacy = TimingSpec(parallelism=8.0)
    assert timing.read_pages(16) == legacy.read_pages(16)
    assert timing.program_pages(16) == legacy.program_pages(16)


def test_conflicting_channels_and_parallelism_rejected():
    with pytest.raises(ValueError):
        TimingSpec(parallelism=16.0, channels=4, planes=2)


def test_non_integral_channel_decomposition_rejected():
    with pytest.raises(ValueError):
        TimingSpec(parallelism=6.0, planes=4)
    with pytest.raises(ValueError):
        TimingSpec(parallelism=2.5)


def test_channel_and_plane_bounds_validated():
    with pytest.raises(ValueError):
        TimingSpec(planes=0)
    with pytest.raises(ValueError):
        TimingSpec(channels=-1)
    with pytest.raises(ValueError):
        TimingSpec(channels=2.0)  # must be a true integer


def test_builtin_profiles_decompose_integrally():
    from repro.flashsim.profiles import ALL_PROFILES

    for profile in ALL_PROFILES:
        timing = profile.timing
        assert timing.channels * timing.planes == timing.parallelism


# ----------------------------------------------------------------------
# the one cost formula: scalars and columns agree bit for bit
# ----------------------------------------------------------------------

_usec = st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False)

_timings = st.builds(
    TimingSpec,
    read_page=_usec,
    program_page=_usec,
    erase_block=_usec,
    transfer_per_kib=_usec,
    controller_overhead=_usec,
    map_miss=_usec,
    parallelism=st.integers(min_value=1, max_value=16).map(float),
    copy_parallelism=st.floats(min_value=1.0, max_value=8.0),
    copy_page_extra=_usec,
)

_counts = st.integers(min_value=0, max_value=4096)

_rows = st.lists(
    st.tuples(
        _counts, _counts, _counts, _counts, _counts,
        st.integers(min_value=0, max_value=64 * 1024 * 1024),
        st.integers(min_value=0, max_value=4),
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=200, deadline=None)
@given(timing=_timings, rows=_rows, include_overhead=st.booleans())
def test_service_formula_on_columns_equals_the_scalar_results(
    timing, rows, include_overhead
):
    """``TimingSpec.service_usec`` on numpy columns equals its
    per-element scalar results bit for bit, and on scalars equals
    ``CostAccumulator.total``."""
    columns = [
        np.asarray(column, dtype=np.float64 if index == 7 else np.int64)
        for index, column in enumerate(zip(*rows))
    ]
    vector = timing.service_usec(*columns, include_overhead=include_overhead)
    scalars = [
        timing.service_usec(*row, include_overhead=include_overhead) for row in rows
    ]
    assert vector.dtype == np.float64
    assert vector.tobytes() == np.asarray(scalars, dtype=np.float64).tobytes()
    for row, value in zip(rows, scalars):
        cost = CostAccumulator(*row)
        assert cost.total(timing, include_overhead=include_overhead) == value
