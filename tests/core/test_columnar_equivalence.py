"""Fast-path equivalence: the default engine against the reference.

The engine's default path drives each spec's precomputed
:class:`~repro.core.generator.IOProgram` through a host's program
runner, which records into column-backed
:class:`~repro.flashsim.trace.IOTrace` storage and hands qualifying
stretches to the closed-form kernels (:mod:`repro.flashsim.analytic`)
and the batch controller/FTL paths.  The oracle is the same engine on
the ``NoFaults`` twin of the device (:func:`~tests.conftest.oracle_device`),
on which every IO takes the scalar per-IO path.  For every registered
spec kind the two must produce bit-identical run statistics,
byte-identical trace CSV, identical per-row views and identical final
device state (``fingerprint``) on every profile.

Each case builds a fresh default device and a fresh oracle twin of the
same profile, runs the same spec through both, and pins all four
equivalences.  (The test names keep their historical
``columnar_legacy`` wording, so the suite's test IDs stay stable:
"columnar" is the default engine, "legacy" the oracle.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import Engine
from repro.core.patterns import (
    LocationKind,
    MixSpec,
    ParallelMixSpec,
    ParallelSpec,
    PatternSpec,
    TimingKind,
    baselines,
)
from repro.flashsim.profiles import build_device
from repro.iotypes import Mode
from repro.units import KIB, MIB

from ..conftest import oracle_device

#: page-map (kernels serve), hybrid (kernels decline) and block-map
#: (kernels serve with reference replay at merge edges)
PROFILES = ("ideal_pagemap", "memoright", "kingston_dti")

BASELINE_KINDS = ("SR", "RR", "SW", "RW")


def _engine_pair(profile: str) -> tuple[Engine, Engine]:
    """Two engines over fresh devices: the default and its oracle twin."""
    return (
        Engine(build_device(profile, logical_bytes=4 * MIB)),
        Engine(oracle_device(profile)),
    )


def _assert_traces_identical(trace_a, trace_b) -> None:
    assert len(trace_a) == len(trace_b)
    assert trace_a.to_csv() == trace_b.to_csv()
    assert np.array_equal(trace_a.response_times(), trace_b.response_times())
    # row views: CompletedIO and CostAccumulator compare field-by-field
    assert list(trace_a) == list(trace_b)


def _assert_runs_identical(run_a, run_b) -> None:
    assert run_a.stats == run_b.stats
    _assert_traces_identical(run_a.trace, run_b.trace)


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("kind", BASELINE_KINDS)
def test_baselines_columnar_legacy_identical(profile, kind):
    """SR/RR/SW/RW: same stats, CSV bytes, rows and device state."""
    spec = baselines(io_size=16 * KIB, io_count=64)[kind]
    fast, oracle = _engine_pair(profile)
    _assert_runs_identical(fast.run(spec), oracle.run(spec))
    assert fast.device.fingerprint() == oracle.device.fingerprint()


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("timing", (TimingKind.PAUSE, TimingKind.BURST))
def test_timed_patterns_columnar_legacy_identical(profile, timing):
    """Pause/burst gaps feed the same submit-time recurrence."""
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=48,
        target_size=2 * MIB,
        timing=timing,
        pause_usec=750.0,
        burst=4 if timing is TimingKind.BURST else 0,
    )
    fast, oracle = _engine_pair(profile)
    _assert_runs_identical(fast.run(spec), oracle.run(spec))
    assert fast.device.fingerprint() == oracle.device.fingerprint()


@pytest.mark.parametrize("profile", PROFILES)
def test_mix_columnar_legacy_identical(profile):
    """Mix runs: overall and per-component summaries all agree."""
    primary = PatternSpec(
        mode=Mode.READ,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=32,
        target_size=2 * MIB,
    )
    secondary = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_size=16 * KIB,
        io_count=32,
        target_offset=2 * MIB,
        target_size=512 * KIB,
    )
    spec = MixSpec(
        primary=primary, secondary=secondary, ratio=3, io_count=48, io_ignore=8
    )
    fast, oracle = _engine_pair(profile)
    run_a, run_b = fast.run(spec), oracle.run(spec)
    _assert_runs_identical(run_a, run_b)
    assert run_a.primary_stats == run_b.primary_stats
    assert run_a.secondary_stats == run_b.secondary_stats
    assert fast.device.fingerprint() == oracle.device.fingerprint()


@pytest.mark.parametrize("profile", PROFILES)
def test_parallel_columnar_legacy_identical(profile):
    """Parallel runs: merged stats and every per-process trace agree."""
    base = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_size=16 * KIB,
        io_count=48,
        target_size=48 * 16 * KIB,
    )
    spec = ParallelSpec(base=base, parallel_degree=3)
    fast, oracle = _engine_pair(profile)
    run_a, run_b = fast.run(spec), oracle.run(spec)
    assert run_a.stats == run_b.stats
    assert len(run_a.runs) == len(run_b.runs)
    for sub_a, sub_b in zip(run_a.runs, run_b.runs):
        _assert_runs_identical(sub_a, sub_b)
    assert fast.device.fingerprint() == oracle.device.fingerprint()


@pytest.mark.parametrize("profile", PROFILES)
def test_parallel_mix_columnar_legacy_identical(profile):
    """Heterogeneous parallel runs interleave identically."""
    reads = PatternSpec(
        mode=Mode.READ,
        location=LocationKind.SEQUENTIAL,
        io_size=16 * KIB,
        io_count=24,
        target_size=512 * KIB,
    )
    writes = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=24,
        target_offset=2 * MIB,
        target_size=1 * MIB,
    )
    spec = ParallelMixSpec((reads, writes))
    fast, oracle = _engine_pair(profile)
    run_a, run_b = fast.run(spec), oracle.run(spec)
    assert run_a.stats == run_b.stats
    for sub_a, sub_b in zip(run_a.runs, run_b.runs):
        _assert_runs_identical(sub_a, sub_b)
    assert fast.device.fingerprint() == oracle.device.fingerprint()


def test_restat_matches_on_columnar_trace():
    """Phase re-analysis cuts the cached response array identically."""
    spec = baselines(io_size=16 * KIB, io_count=64)["RW"]
    fast, oracle = _engine_pair("memoright")
    run_a, run_b = fast.run(spec), oracle.run(spec)
    for cut in (0, 8, 32, 63):
        assert run_a.restat(cut) == run_b.restat(cut)
