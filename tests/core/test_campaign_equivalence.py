"""Equivalence suite: the parallel dispatch changes nothing but time.

DESIGN.md §14's contract — pooled cells on warm workers, restored from
shared-memory snapshots the parent enforced and published, must leave
campaign outcomes **bit-identical** to the inline ``jobs=1`` run of the
same dispatch loop: same payloads, same state fingerprints, same per-IO
trace columns.  These tests pin that contract at ``--jobs 4`` against
``jobs=1``, with the scheduling machinery verifiably active (warm hits
observed, zero snapshot bytes through the pipe), and check that a
fully cached parallel campaign starts no pool at all.
"""

import pytest

from repro.core.executor import CampaignExecutor, plan_cells
from repro.obs import metrics as obs_metrics
from repro.units import KIB, MIB, SEC

PROFILES = ("kingston_dti", "memoright")
CAPACITY = 4 * MIB


def campaign_cells(io_count: int = 8):
    """A small two-profile campaign: two groups, each with more cells
    (six) than the four workers, so some worker reuses a resident."""
    cells = []
    for profile in PROFILES:
        cells.extend(
            plan_cells(
                profile,
                CAPACITY,
                ["granularity", "order"],
                io_size=32 * KIB,
                io_count=io_count,
                pause_usec=0.1 * SEC,
            )
        )
    return cells


def by_experiment(outcomes):
    return {(o.cell.profile, o.cell.experiment): o for o in outcomes}


def group_fingerprints(executor):
    """The executor's prepared base-state fingerprints per group."""
    return {
        group: prep.fingerprint for group, prep in executor._prepared.items()
    }


def test_jobs4_warm_dispatch_bit_identical_to_sequential():
    cells = campaign_cells()

    sequential = CampaignExecutor(jobs=1)
    base = sequential.execute(cells)

    warm = CampaignExecutor(jobs=4)
    try:
        fast = warm.execute(cells)
        # the machinery this suite guards must actually be engaged:
        # resident devices hit and zero snapshot bytes shipped through
        # the pool pipe
        assert warm.sched.warm_hits > 0
        assert warm.sched.segments_published == len(PROFILES)
        assert warm.sched.bytes_shipped == 0
        assert warm.sched.bytes_saved > 0
        # both dispatch modes key the run cache on the same base states
        assert group_fingerprints(warm) == group_fingerprints(sequential)
    finally:
        warm.close()

    assert [o.cell for o in fast] == [o.cell for o in base]
    for key, outcome in by_experiment(base).items():
        assert by_experiment(fast)[key].payload == outcome.payload


def test_trace_columns_identical_across_dispatch_modes():
    # keep_traces puts the full per-IO columnar traces into the payload,
    # so payload equality pins every trace column bit-for-bit
    cells = campaign_cells(io_count=6)

    sequential = CampaignExecutor(jobs=1, keep_traces=True)
    base = sequential.execute(cells)

    warm = CampaignExecutor(jobs=4, keep_traces=True)
    try:
        fast = warm.execute(cells)
        assert warm.sched.warm_hits > 0
    finally:
        warm.close()

    for key, outcome in by_experiment(base).items():
        other = by_experiment(fast)[key]
        assert other.payload == outcome.payload
        rows = outcome.payload["rows"]
        assert any(row.get("traces") for row in rows)


def test_repeated_execute_reuses_prepared_states_and_stays_identical():
    # second execute on the same executor: every group is already
    # prepared (no new enforcement), results unchanged
    cells = campaign_cells()
    warm = CampaignExecutor(jobs=4)
    try:
        first = warm.execute(cells)
        published = warm.sched.segments_published
        second = warm.execute(cells)
        assert warm.sched.segments_published == published
        for a, b in zip(first, second):
            assert a.payload == b.payload
    finally:
        warm.close()


def test_fully_cached_parallel_campaign_starts_no_pool(tmp_path, monkeypatch):
    # every cell is a hit: the parent serves them all without a worker
    # process or a shared-memory segment
    cells = campaign_cells()
    CampaignExecutor(jobs=1, cache=tmp_path / "cache").execute(cells)

    def no_pool(*args, **kwargs):
        raise AssertionError("a fully cached campaign built a process pool")

    monkeypatch.setattr("repro.core.executor.ProcessPoolExecutor", no_pool)
    registry = obs_metrics.MetricsRegistry()
    warm = CampaignExecutor(jobs=4, cache=tmp_path / "cache")
    try:
        with obs_metrics.installed(registry):
            served = warm.execute(cells)
        assert all(outcome.cached for outcome in served)
        assert warm.sched.segments_published == 0
        assert warm._store is None
    finally:
        warm.close()
    counts = registry.snapshot().counters
    assert counts.get("core.executor.snapshot_segments", 0) == 0
    assert counts["core.executor.cells_cached"] == len(cells)


def test_warm_dispatch_identical_with_cache_round_trip(tmp_path):
    # cold run (warm dispatch) populates the cache; the sequential
    # executor then serves every cell from it — cross-mode cache keys
    cells = campaign_cells()
    warm = CampaignExecutor(jobs=4, cache=tmp_path / "cache")
    try:
        cold = warm.execute(cells)
    finally:
        warm.close()
    sequential = CampaignExecutor(jobs=1, cache=tmp_path / "cache")
    served = sequential.execute(cells)
    assert all(o.cached for o in served)
    for a, b in zip(cold, served):
        assert a.payload == b.payload


def test_inline_snapshots_when_shared_memory_is_unavailable(monkeypatch):
    # where no segment can be created, the parent ships each group's
    # snapshot with its cells instead; results stay bit-identical
    from repro.flashsim.snapshot import SnapshotStore

    def no_shared_memory(self, fingerprint, snapshot):
        raise OSError("no shared memory")

    monkeypatch.setattr(SnapshotStore, "publish", no_shared_memory)
    cells = campaign_cells()
    base = CampaignExecutor(jobs=1).execute(cells)
    warm = CampaignExecutor(jobs=4)
    try:
        fast = warm.execute(cells)
        assert warm.sched.segments_published == 0
        assert warm.sched.bytes_shipped > 0
        assert warm.sched.bytes_saved == 0
        assert warm._store.segment_names() == ()
    finally:
        warm.close()
    for a, b in zip(base, fast):
        assert a.payload == b.payload
