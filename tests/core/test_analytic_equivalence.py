"""Analytic-kernel equivalence: closed-form windows must be invisible.

The whole-run kernels (:mod:`repro.flashsim.analytic`) simulate maximal
provably-transition-free windows of a homogeneous run in one vectorized
pass and decline — back to the per-IO reference path — the moment
garbage collection, background interference or a verification failure
could occur.  Like the batch and columnar layers they are a pure
performance optimisation: on a default device and on its ``NoFaults``
oracle twin (:func:`~tests.conftest.oracle_device`, every layer on its
scalar reference path), state enforcement and engine pattern runs must
produce bit-identical device state (``fingerprint``), identical
metrics, identical run statistics and byte-identical traces.

The second half pins the *bail-out exactness* contract: each decline
reason fires exactly when its state transition could occur, the window
is truncated exactly before the offending IO, and the fallback
reproduces the reference behaviour (including raised errors).
"""

from __future__ import annotations

import copy

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import enforce_random_state
from repro.core.methodology import enforce_sequential_state
from repro.core.engine import Engine
from repro.core.patterns import (
    LocationKind,
    MixSpec,
    PatternSpec,
    TimingKind,
    baselines,
)
from repro.flashsim import analytic
from repro.flashsim.profiles import build_device
from repro.iotypes import Mode
from repro.units import KIB, MIB

from ..conftest import make_device, oracle_device

#: one profile per kernel disposition: full coverage (page-map, GC
#: epochs included), full decline (hybrid + cache), full coverage
#: (block-map appends with reference replay at merge edges)
PROFILES = ("ideal_pagemap", "memoright", "kingston_dti")


@pytest.fixture(autouse=True)
def _isolated_stats():
    analytic.STATS.reset()
    yield
    analytic.STATS.reset()


def _report_tuple(report):
    return (
        report.method,
        report.io_count,
        report.bytes_written,
        report.elapsed_usec,
        report.mean_io_usec,
    )


# ----------------------------------------------------------------------
# whole-run equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("profile", PROFILES)
def test_enforce_analytic_reference_identical(profile):
    """State enforcement: same report, fingerprint and metrics."""
    kernel_dev = build_device(profile, logical_bytes=4 * MIB)
    reference_dev = oracle_device(profile)
    kernel_report = enforce_random_state(kernel_dev, seed=5)
    reference_report = enforce_random_state(reference_dev, seed=5)
    assert _report_tuple(kernel_report) == _report_tuple(reference_report)
    assert kernel_dev.fingerprint() == reference_dev.fingerprint()
    assert kernel_dev.metrics() == reference_dev.metrics()
    kernel_dev.check_invariants()


@pytest.mark.parametrize("profile", PROFILES)
def test_sequential_enforce_analytic_reference_identical(profile):
    """Sequential state enforcement: same report, fingerprint and
    metrics as the oracle twin."""
    kernel_dev = build_device(profile, logical_bytes=4 * MIB)
    reference_dev = oracle_device(profile)
    kernel_report = enforce_sequential_state(kernel_dev)
    reference_report = enforce_sequential_state(reference_dev)
    assert _report_tuple(kernel_report) == _report_tuple(reference_report)
    assert kernel_dev.fingerprint() == reference_dev.fingerprint()
    assert kernel_dev.metrics() == reference_dev.metrics()
    kernel_dev.check_invariants()


def test_declined_writes_count_one_decline_per_stretch():
    """A block-map write stretch declines once and runs per IO; a
    hybrid enforcement declines once as a whole program — neither
    counts a decline per IO.  Both match the oracle."""
    from repro.core.generator import IOProgram
    from repro.flashsim.host import SyncHost

    page = 16 * KIB
    lbas = np.concatenate([
        np.arange(32, dtype=np.int64) * page,
        np.arange(32, dtype=np.int64)[::-1] * page,
        np.arange(32, 64, dtype=np.int64) * page,
    ])
    writes = np.ones(lbas.size, dtype=bool)
    writes[32:64] = False
    program = IOProgram(
        lbas=lbas,
        sizes=np.full(lbas.size, page, dtype=np.int64),
        writes=writes,
        gaps=np.zeros(lbas.size),
    )
    kernel_dev = build_device("kingston_dti", 4 * MIB)
    reference_dev = oracle_device("kingston_dti")
    kernel_trace = SyncHost(kernel_dev).run_program(program)
    assert analytic.STATS.declines == {"write:ftl-family": 2}
    assert analytic.STATS.read_ios == 32
    reference_trace = SyncHost(reference_dev).run_program(program)
    assert kernel_trace.to_csv() == reference_trace.to_csv()
    assert kernel_dev.fingerprint() == reference_dev.fingerprint()

    analytic.STATS.reset()
    report = enforce_random_state(build_device("memoright", 4 * MIB), seed=5)
    assert report.io_count > 1
    assert analytic.STATS.declines == {"program:ftl-family": 1}


@pytest.mark.parametrize("profile", ("ideal_pagemap", "kingston_dti"))
def test_os_overhead_runs_the_per_io_step_like_the_oracle(profile):
    """Host overhead declines each program once as a whole
    (``program:os-overhead``), and the per-IO step runs it exactly as
    on the oracle twin: same trace payloads, state and metrics."""
    from repro.core.generator import IOProgram
    from repro.flashsim.host import SyncHost

    page = 16 * KIB
    slots = np.concatenate([np.arange(48), np.arange(48)[::-1], np.arange(48, 80)])
    writes = np.ones(slots.size, dtype=bool)
    writes[48:96] = False
    gaps = np.zeros(slots.size)
    gaps[100:110] = 500.0
    program = IOProgram(
        lbas=slots.astype(np.int64) * page,
        sizes=np.full(slots.size, page, dtype=np.int64),
        writes=writes,
        gaps=gaps,
    )
    observed = []
    for device in (build_device(profile, 4 * MIB), oracle_device(profile)):
        analytic.STATS.reset()
        host = SyncHost(device, os_overhead_usec=100.0)
        traces = [
            host.run_program(program, start_at=device.busy_until) for _ in range(2)
        ]
        assert analytic.STATS.declines == {"program:os-overhead": 2}
        assert traces[0].column("submitted_at")[0] == 100.0
        observed.append((
            [trace.to_payload() for trace in traces],
            device.fingerprint(),
            device.metrics(),
        ))
    assert observed[0] == observed[1]


def test_enforce_kernel_takes_pagemap_windows():
    """On the page-map profile the write kernel actually runs."""
    device = build_device("ideal_pagemap", logical_bytes=4 * MIB)
    report = enforce_random_state(device, seed=5)
    assert analytic.STATS.write_windows >= 1
    assert 0 < analytic.STATS.write_ios <= report.io_count


@pytest.mark.parametrize("kind", ("SR", "RR", "SW", "RW"))
def test_engine_baselines_analytic_reference_identical(kind):
    """SR/RR/SW/RW through the engine: stats, CSV and state agree."""
    spec = baselines(io_size=16 * KIB, io_count=64)[kind]
    kernel_engine = Engine(build_device("ideal_pagemap", logical_bytes=4 * MIB))
    reference_engine = Engine(oracle_device("ideal_pagemap"))
    kernel_run = kernel_engine.run(spec)
    reference_run = reference_engine.run(spec)
    assert kernel_run.stats == reference_run.stats
    assert kernel_run.trace.to_csv() == reference_run.trace.to_csv()
    assert kernel_engine.device.fingerprint() == reference_engine.device.fingerprint()


def test_gc_crossing_run_analytic_reference_identical():
    """A run long enough to trigger GC: the GC-epoch kernel absorbs the
    steady-state tail (no per-IO fallback), every collection still
    happens, and the final state is bit-identical."""
    kernel_dev = make_device(ftl_kind="pagemap")
    reference_dev = oracle_device({"ftl_kind": "pagemap"})
    kernel_report = enforce_random_state(kernel_dev, seed=3, coverage=3.0)
    reference_report = enforce_random_state(reference_dev, seed=3, coverage=3.0)
    assert _report_tuple(kernel_report) == _report_tuple(reference_report)
    assert kernel_dev.fingerprint() == reference_dev.fingerprint()
    assert kernel_dev.metrics() == reference_dev.metrics()
    assert kernel_dev.ftl.gc_collections > 0
    assert analytic.STATS.epoch_windows > 0
    assert analytic.STATS.epoch_collections == kernel_dev.ftl.gc_collections
    assert "write:gc-headroom" not in analytic.STATS.declines
    kernel_dev.check_invariants()


@pytest.mark.parametrize(
    ("logical_mib", "spare_blocks"),
    [(2, 7), (4, 8), (4, 24), (8, 12)],
    ids=["2MiB-tight", "4MiB-tight", "4MiB-roomy", "8MiB"],
)
def test_gc_epoch_across_capacities_and_overprovisioning(
    logical_mib, spare_blocks
):
    """The GC-epoch kernel must stay bit-identical as capacity and
    over-provisioning vary — the epoch boundaries (free-pool watermark,
    victim choice, relocation volume) all shift with the spare-block
    budget.  Background GC is disabled so the spare pool can be squeezed
    below the idle-target minimum: every collection is foreground."""
    from repro.flashsim.ftl.pagemap import PageMapConfig
    from repro.flashsim.profiles import scaled_profile

    profile = scaled_profile(
        "ideal_pagemap",
        name=f"pagemap-{logical_mib}m-{spare_blocks}s",
        spare_blocks=spare_blocks,
        pagemap=PageMapConfig(gc_low_blocks=4, bg_enabled=False),
    )
    kernel_dev = profile.build(logical_mib * MIB)
    reference_dev = oracle_device(profile, logical_mib * MIB)
    kernel_report = enforce_random_state(kernel_dev, seed=11, coverage=2.5)
    epoch_windows = analytic.STATS.epoch_windows
    reference_report = enforce_random_state(reference_dev, seed=11, coverage=2.5)
    assert _report_tuple(kernel_report) == _report_tuple(reference_report)
    assert kernel_dev.fingerprint() == reference_dev.fingerprint()
    assert kernel_dev.metrics() == reference_dev.metrics()
    assert kernel_dev.ftl.gc_collections > 0
    assert epoch_windows > 0
    kernel_dev.check_invariants()


def test_write_window_declines_wear_levelling_exactly():
    """A wear-threshold config must keep every write on the per-IO
    reference path (wear moves interleave with host appends in ways the
    kernel does not model): enforcement's program declines as a whole —
    and the fallback must still be bit-identical."""
    from repro.flashsim.ftl.pagemap import PageMapConfig
    from repro.flashsim.profiles import scaled_profile

    profile = scaled_profile(
        "ideal_pagemap",
        name="pagemap-wear",
        pagemap=PageMapConfig(
            gc_low_blocks=4,
            bg_enabled=True,
            bg_target_blocks=32,
            wear_threshold=8,
        ),
    )
    kernel_dev = profile.build(4 * MIB)
    reference_dev = oracle_device(profile)
    kernel_report = enforce_random_state(kernel_dev, seed=3, coverage=2.0)
    assert analytic.STATS.declines.get("program:wear-levelling", 0) > 0
    assert analytic.STATS.write_windows == 0
    reference_report = enforce_random_state(reference_dev, seed=3, coverage=2.0)
    assert _report_tuple(kernel_report) == _report_tuple(reference_report)
    assert kernel_dev.fingerprint() == reference_dev.fingerprint()
    assert kernel_dev.metrics() == reference_dev.metrics()


@pytest.mark.parametrize("kind", ("SR", "RR", "SW", "RW"))
def test_engine_baselines_blockmap_analytic_reference_identical(kind):
    """Block-map family through the engine: the kernel covers aligned
    appends in closed form and replays merge-heavy IOs through the
    reference controller — stats, CSV and state must agree."""
    spec = baselines(io_size=16 * KIB, io_count=64)[kind]
    kernel_engine = Engine(build_device("kingston_dti", logical_bytes=4 * MIB))
    reference_engine = Engine(oracle_device("kingston_dti"))
    kernel_run = kernel_engine.run(spec)
    reference_run = reference_engine.run(spec)
    assert kernel_run.stats == reference_run.stats
    assert kernel_run.trace.to_csv() == reference_run.trace.to_csv()
    assert kernel_engine.device.fingerprint() == reference_engine.device.fingerprint()
    assert kernel_engine.device.metrics() == reference_engine.device.metrics()


@pytest.mark.parametrize("profile", ("ideal_pagemap", "kingston_dti"))
@pytest.mark.parametrize("queue_depth", (4, 32))
def test_queued_reads_analytic_reference_identical(profile, queue_depth):
    """AsyncHost read programs at depth > 1: the queued completion
    kernel replays the submit/pop event schedule in closed form —
    stats, channel horizons, queue occupancy counters and the trace
    must be bit-identical to per-IO timeline stepping."""
    spec = PatternSpec(
        mode=Mode.READ,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=128,
        target_size=2 * MIB,
        timing=TimingKind.CONSECUTIVE,
        queue_depth=queue_depth,
    )
    kernel_engine = Engine(build_device(profile, logical_bytes=4 * MIB))
    reference_engine = Engine(oracle_device(profile))
    enforce_random_state(kernel_engine.device, seed=7)
    enforce_random_state(reference_engine.device, seed=7)
    assert kernel_engine.device.fingerprint() == reference_engine.device.fingerprint()
    analytic.STATS.reset()
    kernel_run = kernel_engine.run(spec)
    assert analytic.STATS.queued_windows >= 1
    assert analytic.STATS.queued_ios == spec.io_count
    reference_run = reference_engine.run(spec)
    assert kernel_run.stats == reference_run.stats
    assert kernel_run.trace.to_csv() == reference_run.trace.to_csv()
    assert kernel_engine.device.fingerprint() == reference_engine.device.fingerprint()
    assert kernel_engine.device.metrics() == reference_engine.device.metrics()


def test_queued_writes_take_the_kernel_and_match_reference():
    """A depth-8 write program runs as one queued window: its services
    come from the page-map write pass (writes dispatch in program
    order), the event schedule overlaps them — with identical results."""
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=64,
        target_size=2 * MIB,
        timing=TimingKind.CONSECUTIVE,
        queue_depth=8,
    )
    kernel_engine = Engine(build_device("ideal_pagemap", logical_bytes=4 * MIB))
    reference_engine = Engine(oracle_device("ideal_pagemap"))
    kernel_run = kernel_engine.run(spec)
    assert analytic.STATS.queued_windows == 1
    assert analytic.STATS.queued_ios == 64
    assert analytic.STATS.declines == {}
    reference_run = reference_engine.run(spec)
    assert kernel_run.stats == reference_run.stats
    assert kernel_run.trace.to_csv() == reference_run.trace.to_csv()
    assert kernel_engine.device.fingerprint() == reference_engine.device.fingerprint()


# ----------------------------------------------------------------------
# bail-out exactness
# ----------------------------------------------------------------------


def _columns(device, count=4, size=16 * KIB):
    lbas = np.arange(count, dtype=np.int64) * size
    sizes = np.full(count, size, dtype=np.int64)
    return lbas, sizes


def test_write_window_declines_non_pagemap_family():
    device = build_device("memoright", logical_bytes=4 * MIB)
    lbas, sizes = _columns(device)
    done, end = analytic.write_window(device, lbas, sizes, device.busy_until)
    assert done == 0 and end == device.busy_until
    assert analytic.STATS.declines == {"write:ftl-family": 1}


def test_write_window_declines_fault_injector():
    """The ``NoFaults`` oracle twin is a reference chip: the kernels
    stand aside with state untouched."""
    device = oracle_device("ideal_pagemap")
    fingerprint = device.fingerprint()
    lbas, sizes = _columns(device)
    done, _ = analytic.write_window(device, lbas, sizes, device.busy_until)
    assert done == 0
    assert analytic.STATS.declines == {"write:fault-injector": 1}
    assert device.fingerprint() == fingerprint


def test_write_window_declines_cache():
    device = make_device(ftl_kind="pagemap", cache_bytes=64 * KIB)
    lbas, sizes = _columns(device, size=device.geometry.page_size)
    done, _ = analytic.write_window(device, lbas, sizes, device.busy_until)
    assert done == 0
    assert analytic.STATS.declines == {"write:cache": 1}


def test_read_window_declines_background_pending():
    """Pending background GC means every read grants credit — a state
    transition per IO, so the read kernel must stand aside."""
    device = make_device(ftl_kind="pagemap", bg=True)
    page = device.geometry.page_size
    cap = device.geometry.logical_bytes
    now = device.busy_until
    for i in range(2 * cap // page):
        now = device.write((i * page) % cap, page, now).completed_at
    assert device.ftl.background_work_pending()
    lbas, sizes = _columns(device, size=page)
    done, _ = analytic.read_window(device, lbas, sizes, device.busy_until)
    assert done == 0
    assert analytic.STATS.declines == {"read:background-pending": 1}


def test_queued_kernel_declines_background_pending():
    """The queued kernel must stand aside at background-unit
    boundaries too: pending GC turns every queued read into a state
    transition (interference + credit-funded background units)."""
    from repro.core.generator import PatternGenerator
    from repro.flashsim.host import AsyncHost

    kernel_dev = make_device(ftl_kind="pagemap", bg=True)
    reference_dev = oracle_device({"ftl_kind": "pagemap", "bg": True})
    page = kernel_dev.geometry.page_size
    cap = kernel_dev.geometry.logical_bytes
    for device in (kernel_dev, reference_dev):
        now = device.busy_until
        for i in range(2 * cap // page):
            now = device.write((i * page) % cap, page, now).completed_at
    assert kernel_dev.ftl.background_work_pending()
    spec = PatternSpec(
        mode=Mode.READ,
        location=LocationKind.SEQUENTIAL,
        io_size=page,
        io_count=32,
        target_size=cap,
        timing=TimingKind.CONSECUTIVE,
        queue_depth=4,
    )
    program = PatternGenerator(spec).program()
    analytic.STATS.reset()
    kernel_trace = AsyncHost(kernel_dev).run_program(
        program, start_at=kernel_dev.busy_until
    )
    assert analytic.STATS.queued_windows == 0
    assert analytic.STATS.declines.get("queued:background-pending", 0) == 1
    reference_trace = AsyncHost(reference_dev).run_program(
        program, start_at=reference_dev.busy_until
    )
    assert kernel_trace.to_csv() == reference_trace.to_csv()
    assert kernel_dev.fingerprint() == reference_dev.fingerprint()


def test_read_window_truncates_before_verification_failure():
    """The read window ends exactly before the IO whose read-your-writes
    verification would raise; the reference path raises on replay."""
    device = build_device("ideal_pagemap", logical_bytes=4 * MIB)
    page = device.geometry.page_size
    now = device.busy_until
    for i in range(4):
        now = device.write(i * page, page, now).completed_at
    # corrupt the flash copy of the third page: reads 0-1 are fine,
    # read 2 must fail verification in both paths
    ppage = int(device.ftl._l2p[2])
    device.chip._tokens[ppage] ^= 1
    lbas = np.arange(4, dtype=np.int64) * page
    sizes = np.full(4, page, dtype=np.int64)
    done, _ = analytic.read_window(device, lbas, sizes, device.busy_until)
    assert done == 2  # truncated exactly before the corrupted page
    done, _ = analytic.read_window(device, lbas[2:], sizes[2:], device.busy_until)
    assert done == 0
    assert analytic.STATS.declines == {"read:verify": 1}


def test_paced_programs_take_one_write_window_and_match_reference():
    """A pause write program and a burst program are one write stretch
    each, gaps and all, and take one write window; both match the
    reference bit for bit."""
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=64,
        target_size=2 * MIB,
    )
    for timing in (
        {"timing": TimingKind.PAUSE, "pause_usec": 500.0},
        {"timing": TimingKind.BURST, "pause_usec": 500.0, "burst": 32},
    ):
        kernel_engine = Engine(build_device("ideal_pagemap", logical_bytes=4 * MIB))
        reference_engine = Engine(oracle_device("ideal_pagemap"))
        analytic.STATS.reset()
        kernel_run = kernel_engine.run(spec.with_(**timing))
        assert analytic.STATS.declines == {}
        assert analytic.STATS.write_windows == 1
        assert analytic.STATS.write_ios == 64
        reference_run = reference_engine.run(spec.with_(**timing))
        assert kernel_run.stats == reference_run.stats
        assert kernel_run.trace.to_csv() == reference_run.trace.to_csv()
        assert kernel_engine.device.fingerprint() == reference_engine.device.fingerprint()


@pytest.mark.parametrize("ratio", (3, 63))
def test_short_stretches_go_per_io_long_ones_take_windows(ratio):
    """A mix's read/write stretches shorter than
    ``MIN_KERNEL_STRETCH`` run per IO (a window's setup would cost more
    than it saves); long read stretches still take read windows.  Both
    match the reference bit for bit."""
    primary = PatternSpec(
        mode=Mode.READ,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=256,
        target_size=2 * MIB,
    )
    secondary = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_size=16 * KIB,
        io_count=256,
        target_offset=2 * MIB,
        target_size=2 * MIB,
    )
    spec = MixSpec(primary=primary, secondary=secondary, ratio=ratio, io_count=256)
    kernel_engine = Engine(build_device("ideal_pagemap", logical_bytes=4 * MIB))
    reference_engine = Engine(oracle_device("ideal_pagemap"))
    kernel_run = kernel_engine.run(spec)
    if ratio < analytic.MIN_KERNEL_STRETCH:
        assert analytic.STATS.read_windows == 0
        assert analytic.STATS.write_windows == 0
        assert analytic.STATS.declines["program:short-stretch"] > 0
    else:
        assert analytic.STATS.read_windows > 0
        assert analytic.STATS.read_ios >= 3 * ratio
    reference_run = reference_engine.run(spec)
    assert kernel_run.stats == reference_run.stats
    assert kernel_run.primary_stats == reference_run.primary_stats
    assert kernel_run.secondary_stats == reference_run.secondary_stats
    assert kernel_run.trace.to_csv() == reference_run.trace.to_csv()
    assert kernel_engine.device.fingerprint() == reference_engine.device.fingerprint()


# ----------------------------------------------------------------------
# paced programs and parallel processes
# ----------------------------------------------------------------------


def _assert_twins(kernel_dev, reference_dev, kernel_traces, reference_traces):
    """Trace bytes, device stats, state, counters and credit agree."""
    assert [t.to_csv() for t in kernel_traces] == [
        t.to_csv() for t in reference_traces
    ]
    assert kernel_dev.stats == reference_dev.stats
    assert kernel_dev.fingerprint() == reference_dev.fingerprint()
    assert kernel_dev.metrics() == reference_dev.metrics()
    assert kernel_dev._bg_credit == reference_dev._bg_credit


def _program(lbas, writes, gaps, size):
    from repro.core.generator import IOProgram

    lbas = np.asarray(lbas, dtype=np.int64)
    return IOProgram(
        lbas=lbas,
        sizes=np.full(lbas.size, size, dtype=np.int64),
        writes=np.broadcast_to(np.asarray(writes, dtype=bool), lbas.shape).copy(),
        gaps=np.broadcast_to(np.asarray(gaps, dtype=np.float64), lbas.shape).copy(),
    )


def _tight_profile():
    """ideal_pagemap with little spare, so 4 MiB runs collect garbage in
    the foreground and in the background."""
    from repro.flashsim.ftl.pagemap import PageMapConfig
    from repro.flashsim.profiles import scaled_profile

    return scaled_profile(
        "ideal_pagemap",
        name="pagemap-tight-bg",
        spare_blocks=16,
        pagemap=PageMapConfig(gc_low_blocks=4, bg_enabled=True, bg_target_blocks=10),
    )


def _pending_twins():
    """A page-map device and its oracle, both with background GC
    pending (the free pool sits below the background target)."""
    twins = (
        make_device(ftl_kind="pagemap", bg=True),
        oracle_device({"ftl_kind": "pagemap", "bg": True}),
    )
    for device in twins:
        page = device.geometry.page_size
        cap = device.geometry.logical_bytes
        now = device.busy_until
        for i in range(2 * cap // page):
            now = device.write((i * page) % cap, page, now).completed_at
    assert twins[0].ftl.background_work_pending()
    return twins


def test_pause_reads_with_background_pending_run_per_io_then_windows():
    """A pause read whose window would start with background work
    pending runs per IO (its gap grants the credit that runs the work);
    the kernel is asked again after it and takes the rest."""
    from repro.flashsim.host import SyncHost

    kernel_dev, reference_dev = _pending_twins()
    page = kernel_dev.geometry.page_size
    program = _program(np.arange(64) * page, False, 20_000.0, page)
    analytic.STATS.reset()
    kernel_trace = SyncHost(kernel_dev).run_program(
        program, start_at=kernel_dev.busy_until
    )
    assert analytic.STATS.declines.get("read:background-pending", 0) >= 1
    assert analytic.STATS.read_windows == 1
    assert 0 < analytic.STATS.read_ios < 64
    assert not kernel_dev.ftl.background_work_pending()
    assert kernel_dev.stats.background_units > 0
    reference_trace = SyncHost(reference_dev).run_program(
        program, start_at=reference_dev.busy_until
    )
    _assert_twins(kernel_dev, reference_dev, [kernel_trace], [reference_trace])


@pytest.mark.parametrize(
    "concurrency", (1.0, 0.0), ids=("read-grants", "idle-grants-only")
)
@pytest.mark.parametrize("profile", ("ideal_pagemap", "kingston_dti"))
def test_read_window_after_a_gap(profile, concurrency):
    """A read stretch whose first IO has a gap (and later ones a mix of
    gaps and none) takes one window: the gap lands in its chain, its
    scheduled/submitted columns and its idle credit grant.  Without
    read grants the idle grants alone move the credit account, which
    they would otherwise saturate."""
    from dataclasses import replace

    from repro.flashsim.host import SyncHost
    from repro.flashsim.profiles import get_profile, scaled_profile

    base = get_profile(profile)
    profile = scaled_profile(
        profile, background=replace(base.background, read_concurrency=concurrency)
    )
    kernel_dev = profile.build(4 * MIB)
    reference_dev = oracle_device(profile)
    for device in (kernel_dev, reference_dev):
        enforce_random_state(device, seed=9)
    page = 16 * KIB
    gaps = np.zeros(64)
    gaps[32] = 700.0  # the read stretch's first IO
    gaps[40::5] = 3.5
    writes = np.arange(64) < 32
    program = _program(np.arange(64) * page, writes, gaps, page)
    analytic.STATS.reset()
    kernel_trace = SyncHost(kernel_dev).run_program(
        program, start_at=kernel_dev.busy_until
    )
    assert analytic.STATS.read_windows == 1
    assert analytic.STATS.read_ios == 32
    assert analytic.STATS.write_windows == (profile.ftl_kind == "pagemap")
    reference_trace = SyncHost(reference_dev).run_program(
        program, start_at=reference_dev.busy_until
    )
    _assert_twins(kernel_dev, reference_dev, [kernel_trace], [reference_trace])
    scheduled = kernel_trace.column("scheduled_at")
    completed = kernel_trace.column("completed_at")
    assert scheduled[32] == completed[31] + 700.0
    if not concurrency:
        assert 0.0 < kernel_dev._bg_credit < base.background.max_leftover_credit_usec


@pytest.mark.parametrize("kind", ("SW", "RW"))
@pytest.mark.parametrize("burst", (10, 20, 640))
def test_bursts_cross_gc_watermarks(kind, burst):
    """SW/RW bursts long enough to run garbage collection on a device
    with little spare: bursts of 10 and 20 pause between groups, 640
    (the whole run) has no gap at all.  Each run is one write window;
    the paced ones run background collections in their gaps, between
    the window's page appends.  Every result matches the oracle."""
    profile = _tight_profile()
    spec = baselines(
        io_size=16 * KIB,
        io_count=640,
        random_target_size=4 * MIB,
        sequential_target_size=4 * MIB,
    )[kind].with_(timing=TimingKind.BURST, pause_usec=5_000.0, burst=burst)
    kernel_engine = Engine(profile.build(4 * MIB))
    reference_engine = Engine(oracle_device(profile))
    for engine in (kernel_engine, reference_engine):
        enforce_random_state(engine.device, seed=4)
    collections = kernel_engine.device.ftl.gc_collections
    units = kernel_engine.device.stats.background_units
    analytic.STATS.reset()
    kernel_run = kernel_engine.run(spec)
    assert kernel_engine.device.ftl.gc_collections > collections
    assert analytic.STATS.write_windows == 1
    assert analytic.STATS.write_ios == 640
    assert analytic.STATS.epoch_windows == 1
    assert analytic.STATS.declines == {}
    if burst < 640:
        assert kernel_engine.device.stats.background_units > units
    reference_run = reference_engine.run(spec)
    assert kernel_run.stats == reference_run.stats
    _assert_twins(
        kernel_engine.device, reference_engine.device,
        [kernel_run.trace], [reference_run.trace],
    )


#: the tight profile's devices enforced once, with their snapshots:
#: each paced/queued example restores both twins instead of enforcing
_TIGHT_TWINS: list = []


def _tight_twins():
    """A kernel device and its oracle twin of :func:`_tight_profile`,
    restored to one enforced random state."""
    if not _TIGHT_TWINS:
        profile = _tight_profile()
        for device in (profile.build(4 * MIB), oracle_device(profile)):
            enforce_random_state(device, seed=4)
            _TIGHT_TWINS.append((device, device.snapshot()))
    for device, state in _TIGHT_TWINS:
        device.restore(state)
    return tuple(device for device, _state in _TIGHT_TWINS)


def _prime(twins, start: str) -> None:
    """Put both twins in a start state: ``enforced`` as restored,
    ``pending`` after 2 MiB of zero-gap sequential writes (the free pool
    below the background target), ``debt`` owing 15 ms of credit."""
    from repro.flashsim.host import SyncHost

    for device in twins:
        if start == "pending":
            page = 16 * KIB
            SyncHost(device).run_program(
                _program(np.arange(128) * page, True, 0.0, page),
                start_at=device.busy_until,
            )
        elif start == "debt":
            device._bg_credit = -15_000.0
    if start == "pending":
        assert twins[0].ftl.background_work_pending()


SECTOR = 512
#: paced write IOs on the tight profile (4 KiB pages): start sectors
#: anywhere, sizes from one sector (an RMW edge on each side) to 128
#: KiB, gaps of 0, under 1 us and several ms
_paced_write = st.tuples(
    st.integers(0, 4 * MIB // SECTOR - 1),
    st.one_of(st.integers(1, 16), st.integers(1, 256)),
    st.one_of(
        st.just(0.0),
        st.floats(0.001, 0.999),
        st.floats(2_000.0, 9_000.0),
    ),
)


def _paced_program(ios):
    from repro.core.generator import IOProgram

    lbas = np.array([start * SECTOR for start, _, _ in ios], dtype=np.int64)
    sizes = np.array([count * SECTOR for _, count, _ in ios], dtype=np.int64)
    return IOProgram(
        lbas=lbas,
        sizes=np.minimum(sizes, 4 * MIB - lbas),
        writes=np.ones(lbas.size, dtype=bool),
        gaps=np.array([gap for _, _, gap in ios], dtype=np.float64),
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    ios=st.lists(_paced_write, min_size=analytic.MIN_KERNEL_STRETCH, max_size=160),
    start=st.sampled_from(("enforced", "pending", "debt")),
)
def test_paced_write_programs_match_the_oracle(ios, start):
    """Generated paced write programs — unaligned sizes, gaps from 0 to
    several ms, background work pending or the credit in debt at the
    start, GC watermarks on a tight spare pool — take one write window
    and leave both twins identical: trace bytes, stats, metrics,
    credit and fingerprint."""
    from repro.flashsim.host import SyncHost

    twins = _tight_twins()
    _prime(twins, start)
    program = _paced_program(ios)
    analytic.STATS.reset()
    traces = [
        SyncHost(device).run_program(program, start_at=device.busy_until)
        for device in twins
    ]
    assert analytic.STATS.write_windows == 1
    assert analytic.STATS.write_ios == len(program)
    _assert_twins(*twins, traces[:1], traces[1:])
    twins[0].check_invariants()


def test_paced_writes_run_background_units_inside_the_window():
    """Guards the generated programs above against testing nothing: a
    pause program starting with work pending runs background units in
    its gaps, a unit in a sub-microsecond gap leaves the credit in
    debt, and the window still serves every IO."""
    from repro.flashsim.host import SyncHost

    twins = _tight_twins()
    _prime(twins, "pending")
    page = 16 * KIB
    units = twins[0].stats.background_units
    gaps = np.full(96, 0.5)
    gaps[48:] = 3_000.0
    program = _program((np.arange(96) * 37 % 256) * page, True, gaps, page)
    analytic.STATS.reset()
    traces = []
    for device in twins:
        device._bg_credit = 1.0
        traces.append(SyncHost(device).run_program(program, start_at=device.busy_until))
        if not device.chip.reference:
            assert analytic.STATS.declines == {}
            assert analytic.STATS.write_windows == 1
            assert analytic.STATS.write_ios == 96
            assert device.stats.background_units > units
    _assert_twins(*twins, traces[:1], traces[1:])


@pytest.mark.parametrize(
    ("depth", "count"), ((1, 64), (4, 64), (32, 768)), ids=("1", "4", "32-gc")
)
def test_queued_write_programs_match_the_reference_loop(depth, count):
    """AsyncHost write programs at depths 1, 4 and 32 (the last three
    times the device, crossing GC watermarks) run as one queued window:
    trace bytes, queue counters, channel horizons, credit and state
    match the reference event loop."""
    from repro.flashsim.host import AsyncHost

    twins = _tight_twins()
    page = 16 * KIB
    rng = np.random.default_rng(depth)
    program = _program(rng.integers(0, 4 * MIB // page, count) * page, True, 0.0, page)
    collections = twins[0].ftl.gc_collections
    analytic.STATS.reset()
    traces = []
    for device in twins:
        traces.append(AsyncHost(device).run_program(
            program, start_at=device.busy_until, queue_depth=depth
        ))
        if not device.chip.reference:
            assert analytic.STATS.queued_windows == 1
            assert analytic.STATS.queued_ios == count
            assert analytic.STATS.declines == {}
    if count > 64:
        assert twins[0].ftl.gc_collections > collections
        assert "gc" in traces[0].to_csv()
    if depth > twins[0].timing.channels:
        assert twins[0].stats.queued_ios > 0
    _assert_twins(*twins, traces[:1], traces[1:])


def test_short_queued_write_programs_decline():
    """A queued write program shorter than ``MIN_KERNEL_STRETCH`` runs
    the reference loop (``queued:short-stretch``)."""
    from repro.flashsim.host import AsyncHost

    twins = _tight_twins()
    page = 16 * KIB
    count = analytic.MIN_KERNEL_STRETCH - 1
    program = _program(np.arange(count) * page, True, 0.0, page)
    traces = [
        AsyncHost(device).run_program(program, start_at=device.busy_until, queue_depth=4)
        for device in twins
    ]
    assert analytic.STATS.queued_windows == 0
    # the shape declines before the device is looked at, so the oracle
    # twin counts it too
    assert analytic.STATS.declines == {"queued:short-stretch": 2}
    _assert_twins(*twins, traces[:1], traces[1:])


@pytest.mark.parametrize("queued", (False, True), ids=("paced", "queued"))
def test_out_of_range_write_mid_program_raises_the_reference_error(queued):
    """An out-of-range IO in the middle of a paced or a queued write
    program: the paced window stops before it and the per-IO path
    raises, the queued kernel leaves the whole program to the reference
    loop; both raise the reference's AddressError at that IO and leave
    the same state."""
    from repro.errors import AddressError
    from repro.flashsim.host import AsyncHost, SyncHost

    page = 16 * KIB
    program = _program(np.arange(48) * page, True, 0.0 if queued else 1_000.0, page)
    program.lbas[30] = 4 * MIB  # the first page past the end
    outcomes = []
    for device in _tight_twins():
        analytic.STATS.reset()
        with pytest.raises(AddressError) as raised:
            if queued:
                AsyncHost(device).run_program(
                    program, start_at=device.busy_until, queue_depth=4
                )
            else:
                SyncHost(device).run_program(program, start_at=device.busy_until)
        outcomes.append((
            str(raised.value), device.fingerprint(), device.metrics(),
            device.stats, device._bg_credit,
        ))
        if device.chip.reference:
            continue
        if queued:
            assert analytic.STATS.declines == {"queued:address": 1}
        else:
            assert analytic.STATS.write_ios == 30
            assert analytic.STATS.declines == {"write:address": 1}
    assert outcomes[0] == outcomes[1]


def _process_programs(degree, write, page, capacity, seed=0):
    """``degree`` programs of unequal lengths over disjoint shares."""
    rng = np.random.default_rng(seed + degree)
    share = capacity // page // degree
    programs = []
    for k in range(degree):
        count = 16 + 5 * k + (3 if write else 1) * (degree - k)
        lbas = (k * share + rng.integers(0, share, count)) * page
        programs.append(_program(lbas, write, 0.0, page))
    return programs


def _parallel_twins(kernel_dev, reference_dev, programs, os_overhead_usec=0.0):
    """Run ``programs`` through ParallelHost on a device and on its
    oracle twin, which takes the event loop; assert the twins agree and
    return the device's kernel counters and traces."""
    from repro.flashsim.host import ParallelHost

    analytic.STATS.reset()
    kernel_traces = ParallelHost(kernel_dev, os_overhead_usec).run_programs(
        programs, start_at=kernel_dev.busy_until
    )
    stats = copy.deepcopy(analytic.STATS)
    analytic.STATS.reset()
    reference_traces = ParallelHost(reference_dev, os_overhead_usec).run_programs(
        programs, start_at=reference_dev.busy_until
    )
    assert analytic.STATS.declines == {"parallel:fault-injector": 1}
    _assert_twins(kernel_dev, reference_dev, kernel_traces, reference_traces)
    return stats, kernel_traces


@pytest.mark.parametrize("write", (False, True), ids=("reads", "writes"))
@pytest.mark.parametrize("degree", (1, 2, 3, 7, 16))
def test_parallel_processes_match_the_reference_loop(degree, write):
    """ParallelHost at degrees 1-16 with unequal program lengths: the
    merged round-robin program takes one window and matches the event
    loop — trace bytes per process, queue counters, channel horizons,
    credit.  The write programs cross GC watermarks."""
    profile = _tight_profile()
    kernel_dev = profile.build(4 * MIB)
    reference_dev = oracle_device(profile)
    for device in (kernel_dev, reference_dev):
        enforce_random_state(device, seed=2)
    page = 16 * KIB
    programs = _process_programs(degree, write, page, 4 * MIB)
    if write:
        # repeat each program until the processes write ~3x the device
        reps = max(1, 3 * (4 * MIB // page) // sum(len(p) for p in programs))
        programs = [
            _program(np.tile(p.lbas, reps), True, 0.0, page) for p in programs
        ]
    total = sum(len(p) for p in programs)
    collections = kernel_dev.ftl.gc_collections
    stats, _traces = _parallel_twins(kernel_dev, reference_dev, programs)
    windows = (stats.write_windows, stats.write_ios, stats.read_windows, stats.read_ios)
    assert windows == ((1, total, 0, 0) if write else (0, 0, 1, total))
    assert stats.declines == {}
    if write:
        assert kernel_dev.ftl.gc_collections > collections
    if degree > 1:
        assert kernel_dev.stats.queued_ios > 0


@pytest.mark.parametrize("write", (False, True), ids=("reads", "writes"))
@pytest.mark.parametrize("profile", ("kingston_dti", "memoright"))
def test_parallel_processes_of_other_families_match_the_reference_loop(profile, write):
    """The merged program runs on the block-map and the cached hybrid
    family as any synchronous program does: block-map reads take one
    read window and block-map writes decline one stretch
    (``write:ftl-family``), the hybrid declines the program
    (``program:ftl-family``); the per-IO step matches the event loop."""
    kernel_dev = build_device(profile, logical_bytes=4 * MIB)
    reference_dev = oracle_device(profile)
    for device in (kernel_dev, reference_dev):
        enforce_random_state(device, seed=2)
    programs = _process_programs(3, write, 16 * KIB, 4 * MIB)
    total = sum(len(p) for p in programs)
    stats, _traces = _parallel_twins(kernel_dev, reference_dev, programs)
    if profile == "memoright":
        assert stats.declines == {"program:ftl-family": 1}
        assert stats.read_ios == stats.write_ios == 0
    elif write:
        assert stats.declines == {"write:ftl-family": 1}
        assert stats.write_ios == 0
    else:
        assert stats.declines == {}
        assert (stats.read_windows, stats.read_ios) == (1, total)


@pytest.mark.parametrize("write", (False, True), ids=("reads", "writes"))
def test_parallel_processes_with_measurement_noise_match_the_reference_loop(write):
    """A jittered device declines the merged program (``program:noise``)
    and its per-IO step draws the noise in the event loop's order."""
    from repro.flashsim.device import NoiseSpec
    from repro.flashsim.profiles import scaled_profile

    profile = scaled_profile("ideal_pagemap", noise=NoiseSpec(jitter=0.05, seed=3))
    kernel_dev = profile.build(4 * MIB)
    reference_dev = oracle_device(profile)
    for device in (kernel_dev, reference_dev):
        enforce_random_state(device, seed=2)
    programs = _process_programs(4, write, 16 * KIB, 4 * MIB)
    stats, _traces = _parallel_twins(kernel_dev, reference_dev, programs)
    assert stats.declines == {"program:noise": 1}
    assert stats.read_ios == stats.write_ios == 0
    assert kernel_dev.stats.queued_ios > 0


@pytest.mark.parametrize("write", (False, True), ids=("reads", "writes"))
def test_parallel_empty_process_matches_the_reference_loop(write):
    """A process with no IO drops out of the round robin at once: the
    others' merged program still takes one window, and the empty
    process gets an empty trace, as in the event loop."""
    profile = _tight_profile()
    kernel_dev = profile.build(4 * MIB)
    reference_dev = oracle_device(profile)
    for device in (kernel_dev, reference_dev):
        enforce_random_state(device, seed=2)
    page = 16 * KIB
    programs = _process_programs(3, write, page, 4 * MIB)
    programs.insert(1, _program([], write, 0.0, page))
    stats, traces = _parallel_twins(kernel_dev, reference_dev, programs)
    assert [len(trace) for trace in traces] == [len(p) for p in programs]
    assert len(traces[1]) == 0
    assert stats.write_windows + stats.read_windows == 1
    assert stats.declines == {}


def test_parallel_reads_with_background_pending_match_the_reference_loop():
    """Parallel reads starting with background work pending: the merged
    program's read window declines (``read:background-pending``) and
    the reads run per IO, interfered with and granting the credit that
    runs the work, until the window can take the rest."""
    twins = _tight_twins()
    _prime(twins, "pending")
    units = twins[0].stats.background_units
    programs = _process_programs(3, False, 16 * KIB, 4 * MIB)
    stats, _traces = _parallel_twins(*twins, programs)
    assert stats.declines.get("read:background-pending", 0) >= 1
    assert twins[0].stats.interfered_reads > 0
    assert twins[0].stats.background_units > units


@pytest.mark.parametrize("reason", ("paced", "os-overhead", "attribution"))
def test_parallel_runs_the_event_loop_where_a_merge_would_differ(reason):
    """Gaps, host overhead and latency attribution make an IO's
    submission time matter, so such runs take the event loop and count
    one ``parallel:<reason>`` decline; the oracle twin runs the same
    loop."""
    kernel_dev = build_device("ideal_pagemap", logical_bytes=4 * MIB)
    reference_dev = oracle_device("ideal_pagemap")
    for device in (kernel_dev, reference_dev):
        enforce_random_state(device, seed=2)
        device.attribution = reason == "attribution"
    page = 16 * KIB
    programs = _process_programs(3, True, page, 4 * MIB)
    if reason == "paced":
        programs[1] = _program(programs[1].lbas, True, 500.0, page)
    overhead = 20.0 if reason == "os-overhead" else 0.0
    stats, _traces = _parallel_twins(kernel_dev, reference_dev, programs, overhead)
    assert stats.declines == {f"parallel:{reason}": 1}
    assert stats.write_ios == stats.read_ios == 0


@pytest.mark.parametrize("write", (False, True), ids=("reads", "writes"))
def test_parallel_out_of_range_io_raises_the_reference_error(write):
    """An out-of-range IO in one process: the merged program's window
    stops before it and the per-IO step raises the event loop's
    AddressError at the same IO, leaving the same state and counters."""
    from repro.errors import AddressError
    from repro.flashsim.host import ParallelHost

    page = 16 * KIB
    programs = _process_programs(4, write, page, 4 * MIB)
    programs[2].lbas[3] = 4 * MIB  # the first page past the end
    op = "write" if write else "read"
    outcomes = []
    for device in (
        build_device("ideal_pagemap", logical_bytes=4 * MIB),
        oracle_device("ideal_pagemap"),
    ):
        enforce_random_state(device, seed=2)
        analytic.STATS.reset()
        with pytest.raises(AddressError) as raised:
            ParallelHost(device).run_programs(programs, start_at=device.busy_until)
        outcomes.append((
            str(raised.value), device.fingerprint(), device.metrics(),
            device.stats, device._bg_credit,
        ))
        if not device.chip.reference:
            # merged row 3 * 4 + 2: position 3 of process 2
            assert getattr(analytic.STATS, f"{op}_ios") == 14
            assert analytic.STATS.declines == {f"{op}:address": 1}
    assert outcomes[0] == outcomes[1]


def test_parallel_read_of_a_corrupted_page_raises_the_reference_error():
    """A read that would fail read-your-writes verification: the merged
    read window stops before it and the per-IO step raises at that IO,
    counting its queue wait as the event loop does."""
    from repro.flashsim.host import ParallelHost

    page = 16 * KIB
    programs = _process_programs(3, False, page, 4 * MIB)
    outcomes = []
    for device in (
        build_device("ideal_pagemap", logical_bytes=4 * MIB),
        oracle_device("ideal_pagemap"),
    ):
        enforce_random_state(device, seed=2)
        lpages = programs[1].lbas // device.geometry.page_size
        ppages = device.ftl._l2p[lpages[4:]]
        device.chip._tokens[int(ppages[ppages >= 0][0])] ^= 1
        analytic.STATS.reset()
        with pytest.raises(Exception) as raised:
            ParallelHost(device).run_programs(programs, start_at=device.busy_until)
        outcomes.append((
            type(raised.value), str(raised.value), device.fingerprint(),
            device.metrics(), device.stats, device._bg_credit,
        ))
        if not device.chip.reference:
            assert analytic.STATS.read_windows == 1
            assert analytic.STATS.declines == {"read:verify": 1}
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("counts", ((48, 48), (16, 64)), ids=("even", "long-tail"))
@pytest.mark.parametrize("profile", PROFILES)
def test_parallel_mix_of_modes_runs_one_merged_program(profile, counts):
    """A ParallelMixSpec of a reader and a writer merges into one
    program of alternating modes: stretches of one IO run per IO, and
    the writer's tail after the reader finishes is one long stretch,
    which a page-map device writes as one window.  Every result matches
    the event loop on the oracle twin."""
    from repro.core.patterns import ParallelMixSpec

    reader = PatternSpec(
        mode=Mode.READ,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=counts[0],
        target_size=2 * MIB,
    )
    writer = reader.with_(
        mode=Mode.WRITE, location=LocationKind.SEQUENTIAL, target_offset=2 * MIB,
        io_count=counts[1],
    )
    spec = ParallelMixSpec(components=(reader, writer))
    kernel_engine = Engine(build_device(profile, logical_bytes=4 * MIB))
    reference_engine = Engine(oracle_device(profile))
    kernel_run = kernel_engine.run(spec)
    tail = counts[1] - counts[0] + 1
    if profile == "memoright":
        assert analytic.STATS.declines == {"program:ftl-family": 1}
    elif counts[0] == counts[1]:
        assert analytic.STATS.declines == {"program:short-stretch": 1}
    else:
        assert analytic.STATS.declines["program:short-stretch"] == 2 * counts[0] - 1
    assert analytic.STATS.read_ios == 0
    assert analytic.STATS.write_ios == (
        tail if profile == "ideal_pagemap" and counts[0] < counts[1] else 0
    )
    reference_run = reference_engine.run(spec)
    assert kernel_run.stats == reference_run.stats
    _assert_twins(
        kernel_engine.device, reference_engine.device,
        [run.trace for run in kernel_run.runs],
        [run.trace for run in reference_run.runs],
    )


def test_parallel_writes_of_zero_cost_decline():
    """With no per-IO cost at all two processes are ready at the same
    instant, and the event loop serves the lower index again — not
    round robin, so the pages land in another order.  A device without
    per-IO overhead takes the event loop (``parallel:zero-overhead``)."""
    from repro.flashsim.host import ParallelHost
    from repro.flashsim.timing import TimingSpec

    free = TimingSpec(
        read_page=0.0, program_page=0.0, erase_block=0.0,
        transfer_per_kib=0.0, controller_overhead=0.0,
    )
    kernel_dev = make_device(ftl_kind="pagemap", timing=free)
    reference_dev = oracle_device({"ftl_kind": "pagemap", "timing": free})
    page = kernel_dev.geometry.page_size
    programs = [_program(np.arange(k, 32, 2) * page, True, 0.0, page) for k in (0, 1)]
    kernel_traces = ParallelHost(kernel_dev).run_programs(programs)
    assert analytic.STATS.declines == {"parallel:zero-overhead": 1}
    reference_traces = ParallelHost(reference_dev).run_programs(programs)
    _assert_twins(kernel_dev, reference_dev, kernel_traces, reference_traces)
    assert kernel_traces[0].column("completed_at").max() == 0.0


def test_kernel_stats_counters_keep_their_layout():
    """``counters()`` lists the hit counters in declaration order, then
    the declines sorted; ``reset()`` zeroes every one of them."""
    stats = analytic.KernelStats(write_ios=3, queued_ios=2)
    stats.decline("write:wear-levelling")
    stats.decline("read:reference")
    hits = (
        "write_windows", "write_ios", "read_windows", "read_ios",
        "epoch_windows", "epoch_ios", "epoch_collections",
        "queued_windows", "queued_ios",
    )
    counters = stats.counters()
    assert list(counters) == [f"core.analytic.{name}" for name in hits] + [
        "core.analytic.decline.read:reference",
        "core.analytic.decline.write:wear-levelling",
    ]
    assert counters["core.analytic.write_ios"] == 3
    assert counters["core.analytic.queued_ios"] == 2
    stats.reset()
    assert stats == analytic.KernelStats()
