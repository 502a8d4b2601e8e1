"""Methodology: state enforcement and run-control rules (Sections 4/5.1)."""

import pytest

from repro.core.methodology import (
    enforce_random_state,
    enforce_sequential_state,
    recommended_io_count,
    recommended_io_ignore,
    run_control_for,
    spec_with_run_control,
)
from repro.core.patterns import LocationKind, PatternSpec
from repro.flashsim.chip import ERASED
from repro.flashsim.host import SyncHost
from repro.iotypes import Mode
from repro.units import KIB

from tests.conftest import make_device


def test_random_enforcement_covers_capacity():
    device = make_device()
    report = enforce_random_state(device)
    assert report.method == "random"
    assert report.bytes_written >= device.capacity
    assert report.io_count > 0
    assert report.elapsed_usec > 0
    device.check_invariants()


def test_random_enforcement_uses_random_sizes(monkeypatch):
    device = make_device()
    sizes = set()
    original = SyncHost.run_program

    def spy(host, program, start_at=0.0):
        sizes.update(program.sizes.tolist())
        return original(host, program, start_at)

    monkeypatch.setattr(SyncHost, "run_program", spy)
    enforce_random_state(device)
    assert len(sizes) > 5  # many distinct sizes, 0.5K..block size
    assert max(sizes) <= device.geometry.block_size


def test_random_enforcement_is_deterministic_per_seed():
    a = make_device()
    b = make_device()
    report_a = enforce_random_state(a, seed=3)
    report_b = enforce_random_state(b, seed=3)
    assert report_a.io_count == report_b.io_count
    assert report_a.elapsed_usec == report_b.elapsed_usec


def test_sequential_enforcement_writes_whole_device():
    device = make_device()
    report = enforce_sequential_state(device, io_size=64 * KIB)
    assert report.method == "sequential"
    assert report.bytes_written == device.capacity
    # every page of the device is now written
    for lpage in (0, device.geometry.logical_pages - 1):
        assert device.ftl.read_token_quiet(lpage) != ERASED
    device.check_invariants()


def test_sequential_enforcement_is_faster_than_random():
    """Section 4.1: sequential state enforcement is faster (but less
    stable); random took 5 hours to 35 days on the paper's devices."""
    random_device = make_device()
    random_report = enforce_random_state(random_device)
    sequential_device = make_device()
    sequential_report = enforce_sequential_state(sequential_device)
    assert sequential_report.elapsed_usec < random_report.elapsed_usec


def test_coverage_validation():
    device = make_device()
    with pytest.raises(ValueError):
        enforce_random_state(device, coverage=0)


def test_recommended_io_count_rules():
    # the paper's rules at full scale (Section 5.1)
    assert recommended_io_count("SSD", "SR", scale=1.0) == 1024
    assert recommended_io_count("SSD", "RW", scale=1.0) == 5120
    assert recommended_io_count("USB", "RW", scale=1.0) == 512
    assert recommended_io_count("SD", "SW", scale=1.0) == 512
    # scaled values stay usable
    assert recommended_io_count("SSD", "RW", scale=0.1) == 512
    assert recommended_io_count("USB", "SR", scale=0.01) >= 32


def test_recommended_io_ignore():
    assert recommended_io_ignore(0) == 0
    assert recommended_io_ignore(100) == 126  # 25% margin


def test_run_control_for_covers_phases():
    io_ignore, io_count = run_control_for(startup=100, period=16, min_periods=8)
    assert io_ignore >= 100
    assert io_count - io_ignore >= 8 * 16


def test_run_control_without_oscillation():
    io_ignore, io_count = run_control_for(startup=0, period=None, floor=64)
    assert io_ignore == 0
    assert io_count >= 64


def test_spec_with_run_control():
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=32 * KIB,
        io_count=64,
        target_size=4096 * KIB,
    )
    tuned = spec_with_run_control(spec, startup=50, period=10)
    assert tuned.io_ignore > 50
    assert tuned.io_count >= tuned.io_ignore + 64


# ----------------------------------------------------------------------
# StatePool memo
# ----------------------------------------------------------------------

def test_state_pool_unbounded_by_default():
    from repro.core.methodology import StatePool

    pool = StatePool()
    device = make_device()
    for seed in range(4):
        pool.ensure(device, coverage=0.25, seed=seed)
    assert len(pool) == 4


def test_state_pool_counts_hits_and_misses():
    from repro.core.methodology import StatePool
    from repro.obs import metrics as obs_metrics

    registry = obs_metrics.install()
    try:
        pool = StatePool()
        device = make_device()
        first = pool.ensure(device, coverage=0.25, seed=1)
        pool.ensure(device, coverage=0.25, seed=2)
        assert pool.ensure(device, coverage=0.25, seed=1) is first
        assert (pool.hits, pool.misses) == (1, 2)
        counters = registry.snapshot().counters
        assert counters["core.state_pool.hits"] == 1
        assert counters["core.state_pool.misses"] == 2
    finally:
        obs_metrics.uninstall()


def test_state_pool_reenforced_state_has_the_same_fingerprint():
    # enforcement starts from an out-of-box device each time (as the
    # executor's prepare() does), so a state enforced again by a fresh
    # pool grows back with the same fingerprint
    from repro.core.methodology import StatePool

    first = StatePool().ensure(make_device(), coverage=0.25, seed=7)
    again = StatePool().ensure(make_device(), coverage=0.25, seed=7)
    assert again.fingerprint == first.fingerprint
