"""Campaign executor: cells, memoization, sequential/parallel parity."""

import dataclasses
import json

import pytest

from repro.core import executor as executor_mod
from repro.core.executor import (
    CampaignCell,
    CampaignExecutor,
    RunCache,
    plan_cells,
    results_by_experiment,
)
from repro.core.methodology import StatePool
from repro.errors import ExperimentError
from repro.units import KIB, MIB, SEC

PROFILE = "kingston_dti"
CAPACITY = 4 * MIB


def order_cells():
    return plan_cells(
        PROFILE,
        CAPACITY,
        ["order"],
        io_size=32 * KIB,
        io_count=8,
        pause_usec=0.1 * SEC,
    )


def test_plan_cells_enumerates_one_cell_per_experiment():
    cells = order_cells()
    assert [cell.experiment for cell in cells] == ["order/SR", "order/SW"]
    assert all(cell.profile == PROFILE for cell in cells)
    assert all(cell.capacity == CAPACITY for cell in cells)


def test_executor_rejects_nonpositive_jobs():
    with pytest.raises(ExperimentError):
        CampaignExecutor(jobs=0)


def test_execute_rejects_unknown_experiment():
    bogus = CampaignCell(
        profile=PROFILE, capacity=CAPACITY, benchmark="order",
        experiment="order/NOPE", io_size=32 * KIB, io_count=8,
    )
    with pytest.raises(ExperimentError):
        CampaignExecutor(enforce=False).execute([bogus])


def test_cache_misses_then_hits_with_identical_payloads(tmp_path):
    cells = order_cells()

    first = CampaignExecutor(jobs=1, cache=tmp_path / "cache")
    ran = first.execute(cells)
    assert [outcome.cached for outcome in ran] == [False, False]
    assert first.cache.misses == len(cells)
    assert first.cache.hits == 0

    # a brand-new executor (fresh StatePool, fresh cache object) against
    # the same directory re-runs zero cells
    second = CampaignExecutor(jobs=1, cache=tmp_path / "cache")
    served = second.execute(cells)
    assert [outcome.cached for outcome in served] == [True, True]
    assert second.cache.hits == len(cells)
    assert second.cache.misses == 0
    assert [outcome.payload for outcome in served] == [
        outcome.payload for outcome in ran
    ]


def test_cache_misses_after_a_profile_change(tmp_path, monkeypatch):
    # tripling memoright's read interference leaves the enforced state
    # (and so the state fingerprint) alone but changes what mix cells
    # measure: the cache must not serve the old payloads
    from repro.flashsim import profiles

    cells = plan_cells(
        "memoright", 16 * MIB, ["mix"], io_size=32 * KIB, io_count=256, seed=1
    )
    stock = CampaignExecutor(jobs=1, cache=tmp_path / "cache")
    before = stock.execute(cells)
    profile = profiles.get_profile("memoright")
    background = dataclasses.replace(
        profile.background,
        read_interference=3 * profile.background.read_interference,
    )
    monkeypatch.setitem(
        profiles._REGISTRY,
        "memoright",
        dataclasses.replace(profile, background=background),
    )
    changed = CampaignExecutor(jobs=1, cache=tmp_path / "cache")
    after = changed.execute(cells)
    assert changed.cache.hits == 0
    assert not any(outcome.cached for outcome in after)
    assert [p.fingerprint for p in changed._prepared.values()] == [
        p.fingerprint for p in stock._prepared.values()
    ]
    # the change moves results, so a hit would have served stale ones
    assert [o.payload for o in after] != [o.payload for o in before]


def test_cache_misses_after_a_source_change(tmp_path, monkeypatch):
    cells = order_cells()
    CampaignExecutor(jobs=1, cache=tmp_path / "cache").execute(cells)
    monkeypatch.setattr(executor_mod, "_source_digest", lambda: "edited")
    rerun = CampaignExecutor(jobs=1, cache=tmp_path / "cache")
    assert not any(outcome.cached for outcome in rerun.execute(cells))


@pytest.mark.parametrize("text", ("{not json", "[]", '{"cell": {}}', "\udcff"))
def test_corrupt_cache_entries_miss(tmp_path, text):
    cache = RunCache(tmp_path)
    cell = order_cells()[0]
    key = cache.key(cell, "fingerprint", "digest", "model")
    cache.put(key, cell, {"rows": []})
    assert cache.get(key) == {"rows": []}
    cache._path(key).write_text(text, errors="surrogateescape")
    assert cache.get(key) is None
    assert cache.misses == 1


def test_parallel_execution_matches_sequential():
    cells = order_cells()
    sequential = CampaignExecutor(jobs=1).execute(cells)
    parallel = CampaignExecutor(jobs=2).execute(cells)
    assert [outcome.payload for outcome in parallel] == [
        outcome.payload for outcome in sequential
    ]


def test_empty_state_pool_argument_is_used():
    # an empty StatePool is falsy (it defines __len__); the executor
    # must still enforce into the caller's pool, not a private one
    pool = StatePool()
    CampaignExecutor(jobs=1, state_pool=pool).execute(order_cells())
    assert len(pool) == 1


def test_results_by_experiment_round_trips():
    outcomes = CampaignExecutor(jobs=1).execute(order_cells())
    results = results_by_experiment(outcomes)
    assert set(results) == {"order/SR", "order/SW"}
    for result in results.values():
        assert all(row.mean_usec > 0 for row in result.rows)


def test_keep_traces_round_trips_through_cache(tmp_path):
    from repro.core.archive import payload_has_traces

    cells = order_cells()
    first = CampaignExecutor(jobs=1, cache=tmp_path / "cache", keep_traces=True)
    ran = first.execute(cells)
    assert all(payload_has_traces(outcome.payload) for outcome in ran)
    rows = ran[0].result().rows
    assert rows[0].traces and len(rows[0].traces[0]) == cells[0].io_count

    second = CampaignExecutor(jobs=1, cache=tmp_path / "cache", keep_traces=True)
    served = second.execute(cells)
    assert [outcome.cached for outcome in served] == [True, True]
    assert [outcome.payload for outcome in served] == [
        outcome.payload for outcome in ran
    ]


def test_stats_only_entries_do_not_satisfy_trace_campaigns(tmp_path):
    cells = order_cells()
    stats_only = CampaignExecutor(jobs=1, cache=tmp_path / "cache")
    stats_only.execute(cells)

    # the stats-only entries are misses for a trace-keeping campaign ...
    tracing = CampaignExecutor(jobs=1, cache=tmp_path / "cache", keep_traces=True)
    upgraded = tracing.execute(cells)
    assert [outcome.cached for outcome in upgraded] == [False, False]

    # ... and the upgraded (trace-carrying) entries satisfy both kinds
    third = CampaignExecutor(jobs=1, cache=tmp_path / "cache")
    served = third.execute(cells)
    assert [outcome.cached for outcome in served] == [True, True]


def test_attribution_implies_traces_and_attributes_every_cell():
    from repro.core.archive import payload_has_attribution, payload_has_traces

    executor = CampaignExecutor(jobs=1, attribution=True)
    assert executor.keep_traces  # attribution rides on kept traces
    outcomes = executor.execute(order_cells())
    for outcome in outcomes:
        assert payload_has_traces(outcome.payload)
        assert payload_has_attribution(outcome.payload)


def test_attribution_balances_in_executor_payloads():
    import numpy as np

    from repro.flashsim.trace import IOTrace

    outcomes = CampaignExecutor(jobs=1, attribution=True).execute(order_cells())
    checked = 0
    for outcome in outcomes:
        for row in outcome.payload["rows"]:
            for trace_payload in row["traces"]:
                trace = IOTrace.from_payload(trace_payload)
                assert not trace.attribution_balance().any()
                checked += len(trace)
    assert checked > 0


def test_parallel_attribution_matches_sequential():
    cells = order_cells()
    sequential = CampaignExecutor(jobs=1, attribution=True).execute(cells)
    parallel = CampaignExecutor(jobs=2, attribution=True).execute(cells)
    assert [outcome.payload for outcome in parallel] == [
        outcome.payload for outcome in sequential
    ]


def test_attribution_misses_unattributed_cache_entries(tmp_path):
    from repro.core.archive import payload_has_attribution

    cells = order_cells()
    plain = CampaignExecutor(jobs=1, cache=tmp_path / "cache", keep_traces=True)
    plain.execute(cells)

    # the cached entries carry traces but no attribution: an attribution
    # campaign must re-run them rather than serve unattributed payloads
    attributed = CampaignExecutor(
        jobs=1, cache=tmp_path / "cache", attribution=True
    )
    outcomes = attributed.execute(cells)
    assert all(not outcome.cached for outcome in outcomes)
    assert all(payload_has_attribution(o.payload) for o in outcomes)

    # ... and the re-run entries now satisfy attribution cache hits
    second = CampaignExecutor(
        jobs=1, cache=tmp_path / "cache", attribution=True
    )
    served = second.execute(cells)
    assert all(outcome.cached for outcome in served)
    assert all(payload_has_attribution(o.payload) for o in served)


def test_payload_has_attribution_edges():
    from repro.core.archive import payload_has_attribution

    assert not payload_has_attribution({"rows": []})
    assert not payload_has_attribution(
        {"rows": [{"traces": [{"submitted_at": [1.0]}]}]}
    )
    assert payload_has_attribution(
        {"rows": [{"traces": [{"submitted_at": [1.0], "attribution": {}}]}]}
    )
    # one unattributed non-empty trace poisons the whole payload ...
    assert not payload_has_attribution(
        {
            "rows": [
                {"traces": [{"submitted_at": [1.0], "attribution": {}}]},
                {"traces": [{"submitted_at": [1.0]}]},
            ]
        }
    )
    # ... but empty traces cannot carry attribution and are tolerated
    assert payload_has_attribution(
        {
            "rows": [
                {"traces": [{"submitted_at": [1.0], "attribution": {}}]},
                {"traces": [{"submitted_at": []}]},
            ]
        }
    )


def test_cache_tracks_payload_bytes_and_per_profile_stats(tmp_path):
    cells = order_cells()

    first = CampaignExecutor(jobs=1, cache=tmp_path / "cache")
    first.execute(cells)
    cache = first.cache
    assert cache.payload_bytes > 0
    stats = cache.profiles[PROFILE]
    assert stats["misses"] == len(cells)
    assert stats["hits"] == 0
    assert stats["payload_bytes"] == cache.payload_bytes
    # each stored entry records its own payload size on disk
    sizes = [
        json.loads(path.read_text())["payload_bytes"]
        for path in (tmp_path / "cache").glob("*.json")
    ]
    assert len(sizes) == len(cells)
    assert sum(sizes) == cache.payload_bytes

    second = CampaignExecutor(jobs=1, cache=tmp_path / "cache")
    second.execute(cells)
    served = second.cache.profiles[PROFILE]
    assert served["hits"] == len(cells)
    assert served["misses"] == 0
    assert served["bytes_saved"] > 0
    assert second.cache.bytes_saved == served["bytes_saved"]
