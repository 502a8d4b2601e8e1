"""Async/sync equivalence: queued submission at depth 1 is invisible.

:class:`~repro.flashsim.host.AsyncHost` replaces the synchronous block
with NCQ-style queued submission; at ``queue_depth=1`` it must be a pure
refactor of :class:`~repro.flashsim.host.SyncHost` — bit-identical run
statistics, byte-identical trace CSV, identical per-row views and an
identical final device state (``fingerprint``) across every FTL family
and profile.  Each case drives the same program through both hosts on
identical fresh devices and pins all four equivalences, mirroring the
engine-vs-oracle suite in ``test_columnar_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import Engine, rest_device
from repro.core.generator import MixGenerator, PatternGenerator
from repro.core.patterns import (
    LocationKind,
    MixSpec,
    PatternSpec,
    TimingKind,
    baselines,
)
from repro.core.stats import summarize
from repro.flashsim.host import AsyncHost, SyncHost
from repro.flashsim.profiles import build_device
from repro.iotypes import Mode
from repro.units import KIB, MIB

from ..conftest import make_device

PROFILES = ("memoright", "kingston_dti")
FTL_KINDS = ("pagemap", "hybrid", "blockmap", "fast")
BASELINE_KINDS = ("SR", "RR", "SW", "RW")


def _small_baselines() -> dict[str, PatternSpec]:
    """Baselines sized for the 1 MiB conftest geometry."""
    return baselines(
        io_size=8 * KIB,
        io_count=64,
        random_target_size=1 * MIB,
        sequential_target_size=512 * KIB,
    )


def _assert_traces_identical(trace_a, trace_b) -> None:
    assert len(trace_a) == len(trace_b)
    assert trace_a.to_csv() == trace_b.to_csv()
    assert np.array_equal(trace_a.response_times(), trace_b.response_times())
    assert list(trace_a) == list(trace_b)


def _run_both(spec, sync_device, async_device) -> None:
    """One spec through SyncHost and AsyncHost(depth=1); pin everything."""
    sync_trace = SyncHost(sync_device).run_program(
        PatternGenerator(spec).program()
    )
    async_trace = AsyncHost(async_device).run_program(
        PatternGenerator(spec).program(), queue_depth=1
    )
    assert async_device.in_flight == 0
    _assert_traces_identical(sync_trace, async_trace)
    assert summarize(sync_trace.response_times(), spec.io_ignore) == summarize(
        async_trace.response_times(), spec.io_ignore
    )
    assert sync_device.fingerprint() == async_device.fingerprint()
    assert sync_device.stats == async_device.stats


@pytest.mark.parametrize("ftl_kind", FTL_KINDS)
@pytest.mark.parametrize("kind", BASELINE_KINDS)
def test_ftl_families_async_depth1_identical(ftl_kind, kind):
    """SR/RR/SW/RW on every FTL family: depth-1 async == sync."""
    spec = _small_baselines()[kind]
    _run_both(spec, make_device(ftl_kind=ftl_kind), make_device(ftl_kind=ftl_kind))


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("kind", BASELINE_KINDS)
def test_profiles_async_depth1_identical(profile, kind):
    """Baselines on calibrated profiles: depth-1 async == sync."""
    spec = baselines(io_size=16 * KIB, io_count=64)[kind]
    _run_both(
        spec,
        build_device(profile, logical_bytes=4 * MIB),
        build_device(profile, logical_bytes=4 * MIB),
    )


@pytest.mark.parametrize("timing", (TimingKind.PAUSE, TimingKind.BURST))
def test_paced_patterns_async_depth1_identical(timing):
    """Pause/burst gaps feed the same submit-time recurrence at depth 1."""
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
    _run_both(
        spec,
        build_device("memoright", logical_bytes=4 * MIB),
        build_device("memoright", logical_bytes=4 * MIB),
    )


def test_mix_async_depth1_identical():
    """A mix program through the queued host at depth 1 == sync."""
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
    spec = MixSpec(primary=primary, secondary=secondary, ratio=3, io_count=48)
    sync_device = build_device("memoright", logical_bytes=4 * MIB)
    async_device = build_device("memoright", logical_bytes=4 * MIB)
    sync_trace = SyncHost(sync_device).run_program(
        MixGenerator(spec).program()
    )
    async_trace = AsyncHost(async_device).run_program(
        MixGenerator(spec).program(), queue_depth=1
    )
    _assert_traces_identical(sync_trace, async_trace)
    assert sync_device.fingerprint() == async_device.fingerprint()


def test_engine_depth1_spec_is_the_sync_path():
    """A ``queue_depth=1`` spec through the engine matches a manual
    sync run — the engine only reaches for the queued host past 1."""
    spec = baselines(io_size=16 * KIB, io_count=64)["RR"]
    assert spec.queue_depth == 1
    engine_device = build_device("memoright", logical_bytes=4 * MIB)
    manual_device = build_device("memoright", logical_bytes=4 * MIB)
    run = Engine(engine_device).run(spec)
    manual_trace = SyncHost(manual_device).run_program(
        PatternGenerator(spec).program()
    )
    _assert_traces_identical(run.trace, manual_trace)
    assert engine_device.fingerprint() == manual_device.fingerprint()


def test_engine_queue_depth_sweep_converges_at_one():
    """The engine's qd>1 path produces the same *work* (stats count,
    device wear) and returns a drained device; at qd=1 it is the sync
    reference exactly."""
    base = baselines(io_size=16 * KIB, io_count=64)["RR"]
    reference = None
    for depth in (1, 4, 16):
        device = build_device("memoright", logical_bytes=4 * MIB)
        run = Engine(device).run(base.with_(queue_depth=depth))
        assert device.in_flight == 0
        assert run.stats.count == base.io_count - base.io_ignore
        rest_device(device, 1000.0)
        device.check_invariants()
        if depth == 1:
            reference = run
        else:
            # queued random reads overlap across channels: the run must
            # not be slower than the synchronous reference
            assert run.stats.mean_usec <= reference.stats.mean_usec
