"""Wear statistics and lifetime projection."""

import pytest

from repro.errors import AnalysisError
from repro.flashsim.wear import _gini, project_lifetime, wear_report
from repro.units import KIB, SEC

import numpy as np

from tests.conftest import make_device


def write_randomly(device, count, seed=0, io_size=4 * KIB):
    """Scattered sub-block random writes (the wear-heavy pattern)."""
    import random

    from repro.iotypes import IORequest, Mode

    rng = random.Random(seed)
    now = device.busy_until
    total = 0
    for index in range(count):
        lba = rng.randrange(device.capacity // io_size) * io_size
        done = device.submit(IORequest(index, lba, io_size, Mode.WRITE), now)
        now = done.completed_at
        total += io_size
    return total, now


def test_gini_of_even_distribution_is_zero():
    assert _gini(np.array([5, 5, 5, 5])) == pytest.approx(0.0, abs=1e-9)


def test_gini_of_concentrated_distribution_is_high():
    concentrated = np.array([0, 0, 0, 100])
    assert _gini(concentrated) > 0.7


def test_gini_empty_and_zero():
    assert _gini(np.array([])) == 0.0
    assert _gini(np.zeros(4)) == 0.0


def test_wear_report_on_fresh_device():
    device = make_device()
    report = wear_report(device)
    assert report.total_erases == 0
    assert report.worst_block_life_used == 0.0
    assert report.evenness == pytest.approx(1.0)


def test_wear_report_after_traffic():
    device = make_device()
    write_randomly(device, 400)
    report = wear_report(device)
    assert report.total_erases > 0
    assert report.max_erases >= report.mean_erases >= report.min_erases
    assert 0.0 <= report.gini <= 1.0
    assert "erases total=" in report.summary()


def test_lifetime_projection():
    device = make_device()
    before = wear_report(device)
    start = device.busy_until
    written, end = write_randomly(device, 400)
    after = wear_report(device)
    projection = project_lifetime(device, before, after, end - start, written)
    assert projection.erases_per_second > 0
    assert projection.write_amplification > 0
    assert projection.projected_seconds > 0
    assert "projected life" in projection.summary()


def test_lifetime_projection_validation():
    device = make_device()
    report = wear_report(device)
    with pytest.raises(AnalysisError):
        project_lifetime(device, report, report, 0.0, 1)


def test_dynamic_rotation_keeps_wear_reasonably_even():
    """The hybrid FTL's FIFO free pool rotates blocks: random traffic
    must not concentrate erases on a handful of blocks."""
    device = make_device()
    write_randomly(device, 1200)
    report = wear_report(device)
    assert report.gini < 0.6


def test_projection_is_workload_sensitive():
    """Sequential overwrites erase less per byte than random writes —
    the projected life under a sequential workload is longer."""
    from repro.core.patterns import LocationKind, PatternSpec
    from repro.core.engine import execute
    from repro.iotypes import Mode

    random_device = make_device()
    before = wear_report(random_device)
    start = random_device.busy_until
    written, end = write_randomly(random_device, 600)
    random_projection = project_lifetime(
        random_device, before, wear_report(random_device), end - start, written
    )

    seq_device = make_device()
    before = wear_report(seq_device)
    start = seq_device.busy_until
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_size=16 * KIB,
        io_count=600,
        target_size=seq_device.capacity,
    )
    run = execute(seq_device, spec)
    end = run.trace[-1].completed_at
    seq_projection = project_lifetime(
        seq_device, before, wear_report(seq_device), end - start, 600 * 16 * KIB
    )
    assert seq_projection.write_amplification < random_projection.write_amplification
