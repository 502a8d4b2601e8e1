"""Metrics: instrument semantics, snapshots, pickling."""

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    current,
    diff_counts,
    install,
    installed,
    merge_counts,
    uninstall,
)


def test_counter_increments():
    counter = Counter()
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter().inc(-1)


def test_gauge_goes_up_and_down():
    gauge = Gauge()
    gauge.set(7)
    gauge.set(3)
    assert gauge.value == 3.0


def test_histogram_buckets_are_non_cumulative():
    histogram = Histogram(bounds=(10.0, 100.0))
    for value in (5, 50, 50, 500):
        histogram.observe(value)
    assert histogram.counts == [1, 2, 1]  # (..10], (10..100], overflow
    assert histogram.count == 4
    assert histogram.total == 605.0
    assert histogram.mean == pytest.approx(151.25)


def test_histogram_boundary_value_lands_in_lower_bucket():
    histogram = Histogram(bounds=(10.0, 100.0))
    histogram.observe(10.0)
    assert histogram.counts == [1, 0, 0]


def test_histogram_needs_bounds():
    with pytest.raises(ValueError):
        Histogram(bounds=())


def test_registry_returns_same_instrument():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.histogram("h") is registry.histogram("h")


def test_snapshot_pickles():
    registry = MetricsRegistry()
    registry.counter("c").inc(4)
    registry.histogram("h").observe(123.0)
    snapshot = registry.snapshot()
    assert pickle.loads(pickle.dumps(snapshot)) == snapshot


def _child_snapshot(amount):
    """Worker-side helper: build a registry and ship its snapshot home."""
    registry = MetricsRegistry()
    registry.counter("child.work").inc(amount)
    return registry.snapshot()


def test_snapshot_crosses_process_boundary():
    with ProcessPoolExecutor(max_workers=1) as pool:
        snapshot = pool.submit(_child_snapshot, 7).result()
    parent = MetricsRegistry()
    parent.counter("child.work").inc(1)
    parent.absorb(snapshot)
    assert parent.counter("child.work").value == 8.0


def test_absorb_folds_every_instrument():
    source = MetricsRegistry()
    source.counter("c").inc(2)
    source.gauge("g").set(9)
    source.histogram("h", bounds=(10.0,)).observe(5)
    target = MetricsRegistry()
    target.gauge("g").set(3)
    target.absorb(source.snapshot())
    assert target.counter("c").value == 2.0
    assert target.gauge("g").value == 9.0
    assert target.histogram("h", bounds=(10.0,)).counts == [1, 0]


def test_install_uninstall_current():
    assert current() is None
    registry = install()
    try:
        assert current() is registry
    finally:
        assert uninstall() is registry
    assert current() is None


def test_installed_none_shadows_active_registry():
    outer = install()
    try:
        with installed(None):
            assert current() is None
        assert current() is outer
    finally:
        uninstall()


def test_diff_counts_drops_unchanged_names():
    delta = diff_counts({"a": 5.0, "b": 2.0, "new": 1.0}, {"a": 5.0, "b": 1.0})
    assert delta == {"b": 1.0, "new": 1.0}


def test_merge_counts_skips_none():
    assert merge_counts({"a": 1.0}, None, {"a": 2.0, "b": 3.0}) == {
        "a": 3.0,
        "b": 3.0,
    }


# ----------------------------------------------------------------------
# observe_many and the engine's queue-occupancy sampling
# ----------------------------------------------------------------------

def test_histogram_observe_many_matches_loop():
    bounds = (1.0, 2.0, 4.0)
    bulk = Histogram(bounds)
    loop = Histogram(bounds)
    bulk.observe_many(2.0, 5)
    bulk.observe_many(8.0, 2)
    for _ in range(5):
        loop.observe(2.0)
    for _ in range(2):
        loop.observe(8.0)
    assert bulk.counts == loop.counts
    assert bulk.total == loop.total
    assert bulk.count == loop.count


def test_histogram_observe_many_edge_counts():
    histogram = Histogram((1.0,))
    histogram.observe_many(1.0, 0)  # no-op
    assert histogram.count == 0
    with pytest.raises(ValueError):
        histogram.observe_many(1.0, -1)


def test_engine_samples_queue_occupancy():
    """A queued engine run fills the occupancy gauge and the in-flight
    depth histogram; a synchronous run leaves them untouched."""
    from repro.core.engine import Engine
    from repro.core.patterns import baselines
    from repro.flashsim.profiles import build_device
    from repro.units import KIB, MIB

    spec = baselines(io_size=16 * KIB, io_count=32)["RR"]
    registry = install(MetricsRegistry())
    try:
        Engine(build_device("memoright", logical_bytes=4 * MIB)).run(spec)
        snap = registry.snapshot()
        assert "device.queue.occupancy" not in snap.gauges
        assert "device.queue.inflight_depth" not in snap.histograms

        Engine(build_device("memoright", logical_bytes=4 * MIB)).run(
            spec.with_(queue_depth=8)
        )
        snap = registry.snapshot()
        occupancy = snap.gauges["device.queue.occupancy"]
        assert 1.0 < occupancy <= 8.0
        histogram = snap.histograms["device.queue.inflight_depth"]
        assert histogram.count == 32  # one depth sample per submission
    finally:
        uninstall()


# ----------------------------------------------------------------------
# bucketed percentile estimation
# ----------------------------------------------------------------------

def test_percentile_interpolates_within_bucket():
    from repro.obs.metrics import Histogram

    histogram = Histogram(bounds=(100.0, 200.0))
    for _ in range(10):
        histogram.observe(150.0)  # all land in (100, 200]
    # rank q*10 observations into the second bucket: linear within it
    assert histogram.percentile(0.5) == 150.0
    assert histogram.percentile(1.0) == 200.0
    assert histogram.percentile(0.0) == 100.0


def test_percentile_first_bucket_interpolates_from_zero():
    from repro.obs.metrics import Histogram

    histogram = Histogram(bounds=(100.0, 200.0))
    histogram.observe_many(50.0, 4)
    assert histogram.percentile(0.5) == 50.0
    assert histogram.percentile(0.25) == 25.0


def test_percentile_overflow_clamps_to_last_bound():
    from repro.obs.metrics import Histogram

    histogram = Histogram(bounds=(100.0,))
    histogram.observe(1e9)
    assert histogram.percentile(0.99) == 100.0


def test_percentile_empty_histogram_is_zero():
    from repro.obs.metrics import Histogram

    assert Histogram().percentile(0.95) == 0.0


def test_percentile_rejects_out_of_range_fraction():
    import pytest

    from repro.obs.metrics import Histogram

    with pytest.raises(ValueError):
        Histogram().percentile(1.5)


def test_percentile_spans_buckets_monotonically():
    from repro.obs.metrics import Histogram

    histogram = Histogram(bounds=(10.0, 100.0, 1000.0))
    histogram.observe_many(5.0, 50)
    histogram.observe_many(50.0, 45)
    histogram.observe_many(500.0, 5)
    p50, p95, p99 = (
        histogram.percentile(0.50),
        histogram.percentile(0.95),
        histogram.percentile(0.99),
    )
    assert p50 <= p95 <= p99
    assert p50 <= 10.0  # median sits in the first bucket
    assert 10.0 < p95 <= 100.0
    assert 100.0 < p99 <= 1000.0


def test_percentile_on_state_matches_live_histogram():
    from repro.obs.metrics import Histogram

    histogram = Histogram()
    for value in (50.0, 500.0, 5_000.0, 50_000.0):
        histogram.observe(value)
    state = histogram.state()
    for q in (0.5, 0.95, 0.99):
        assert state.percentile(q) == histogram.percentile(q)


def test_histogram_table_shows_percentiles_not_buckets():
    from repro.obs.metrics import Histogram
    from repro.obs.progress import histogram_table

    histogram = Histogram(bounds=(100.0, 1000.0))
    histogram.observe_many(50.0, 10)
    table = histogram_table({"lat": histogram.state()}, title="t")
    assert table.startswith("t\n")
    for column in ("count", "mean", "p50", "p95", "p99"):
        assert column in table
    assert "10" in table  # the count, not raw bucket arrays
