"""RAM write-back cache: hits, LRU groups, destage hysteresis, flush,
and the run write against the per-page writes."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import FTLError
from repro.flashsim.cache import WriteBackCache
from repro.flashsim.timing import CostAccumulator
from tests.conftest import SMALL_GEOMETRY

PPB = 8


@pytest.fixture
def cache(geometry):
    # capacity: 16 pages, destage down to 12
    return WriteBackCache(geometry, 16 * geometry.page_size, low_watermark=0.75)


def test_write_then_read_hit(cache):
    assert cache.write(5, 100) is False  # first write: not a hit
    assert cache.read(5) == 100
    assert cache.hits == 1


def test_overwrite_is_a_hit_and_keeps_one_copy(cache):
    cache.write(5, 100)
    assert cache.write(5, 200) is True
    assert cache.dirty_pages == 1
    assert cache.read(5) == 200


def test_read_miss(cache):
    assert cache.read(42) is None
    assert cache.misses == 1


def test_destage_not_needed_below_capacity(cache, hybrid_ftl):
    for lpage in range(16):
        cache.write(lpage, lpage + 1)
    cost = CostAccumulator()
    assert cache.destage_if_needed(hybrid_ftl, cost) == 0
    assert cost.is_empty()


def test_destage_hysteresis_down_to_low_watermark(cache, hybrid_ftl):
    # 17 dirty pages in 3 block groups -> over capacity (16)
    for lpage in list(range(8)) + list(range(8, 16)) + [16]:
        cache.write(lpage, lpage + 1)
    cost = CostAccumulator()
    destaged = cache.destage_if_needed(hybrid_ftl, cost)
    assert destaged > 0
    assert cache.dirty_pages <= 12
    assert cost.page_programs == destaged


def test_destage_picks_lru_block_group(cache, hybrid_ftl):
    for offset in range(8):
        cache.write(offset, 1)  # block 0 (oldest)
    for offset in range(8):
        cache.write(PPB + offset, 2)  # block 1
    cache.write(0, 9)  # touch block 0 -> block 1 becomes LRU
    cache.write(2 * PPB, 3)  # overflow (17 pages)
    cost = CostAccumulator()
    cache.destage_if_needed(hybrid_ftl, cost)
    # block 1 was destaged; block 0 is still cached
    assert cache.read(0) == 9
    assert cache.read(PPB) is None
    assert hybrid_ftl.read_token_quiet(PPB) == 2


def test_destaged_group_is_written_in_offset_order(cache, hybrid_ftl):
    # write a block's pages in reverse; the destage must arrive sorted,
    # making the log switch-mergeable (how caches absorb reverse writes)
    for offset in reversed(range(PPB)):
        cache.write(offset, offset + 1)
    cost = CostAccumulator()
    cache.flush(hybrid_ftl, cost)
    assert hybrid_ftl.merge_stats["switch"] == 1
    assert hybrid_ftl.merge_stats["full"] == 0


def test_flush_empties_everything(cache, hybrid_ftl):
    for lpage in range(13):
        cache.write(lpage, lpage + 1)
    cost = CostAccumulator()
    assert cache.flush(hybrid_ftl, cost) == 13
    assert cache.dirty_pages == 0
    for lpage in range(13):
        assert hybrid_ftl.read_token_quiet(lpage) == lpage + 1


def test_stats_track_destages(cache, hybrid_ftl):
    for lpage in range(8):
        cache.write(lpage, 1)
    cost = CostAccumulator()
    cache.flush(hybrid_ftl, cost)
    assert cache.destaged_groups == 1
    assert cache.destaged_pages == 8


def test_capacity_validation(geometry):
    with pytest.raises(FTLError):
        WriteBackCache(geometry, geometry.page_size - 1)
    with pytest.raises(FTLError):
        WriteBackCache(geometry, geometry.page_size, low_watermark=0.0)
    with pytest.raises(FTLError):
        WriteBackCache(geometry, geometry.page_size, low_watermark=1.5)


_runs = st.lists(
    st.tuples(
        st.integers(0, 6 * PPB - 1),  # first page: six blocks, so groups repeat
        st.integers(1, 3 * PPB),  # pages: up to three block segments
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(runs=_runs)
def test_write_run_matches_the_per_page_writes(runs):
    """``write_run`` leaves the groups (contents and LRU order, group
    dict order included), dirty count and hit/miss counters of the
    per-page ``write`` calls."""
    run_cache, page_cache = (
        WriteBackCache(SMALL_GEOMETRY, 1 << 20) for _ in range(2)
    )
    token = 1
    for first, count in runs:
        tokens = np.arange(token, token + count, dtype=np.int64)
        token += count
        run_cache.write_run(first, tokens)
        for lpage, value in zip(range(first, first + count), tokens.tolist()):
            page_cache.write(lpage, value)
    run_state, page_state = run_cache.snapshot(), page_cache.snapshot()
    assert [(b, list(g.items())) for b, g in run_state["groups"].items()] == [
        (b, list(g.items())) for b, g in page_state["groups"].items()
    ]
    assert run_state == page_state
    assert run_cache.metrics() == page_cache.metrics()
    assert run_cache.dirty_pages == page_cache.dirty_pages
