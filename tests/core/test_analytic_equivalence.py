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

import numpy as np
import pytest

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


def test_queued_writes_decline_but_match_reference():
    """Depth-d write programs stay on the reference loop (writes mutate
    FTL state in submission order, which the event-schedule kernel does
    not model) — with identical results."""
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
    assert analytic.STATS.declines.get("queued:writes", 0) > 0
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


def test_paced_program_declines_but_matches_reference():
    """Pause-timed runs (inter-IO gaps) disqualify the whole-program
    kernel up front; the host's reference loop must take over with
    identical results."""
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=32,
        target_size=2 * MIB,
        timing=TimingKind.PAUSE,
        pause_usec=500.0,
    )
    kernel_engine = Engine(build_device("ideal_pagemap", logical_bytes=4 * MIB))
    reference_engine = Engine(oracle_device("ideal_pagemap"))
    kernel_run = kernel_engine.run(spec)
    assert analytic.STATS.declines.get("program:paced", 0) > 0
    reference_run = reference_engine.run(spec)
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
