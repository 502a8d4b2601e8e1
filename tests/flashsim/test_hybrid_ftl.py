"""Hybrid log-block FTL: merges, pools, deferral, stream classification."""

import numpy as np
import pytest

from repro.errors import FTLError
from repro.flashsim.chip import ERASED, FlashChip
from repro.flashsim.ftl.hybrid import FILLER_TOKEN, HybridConfig, HybridLogFTL
from repro.flashsim.geometry import Geometry
from repro.flashsim.timing import CostAccumulator
from repro.units import KIB, MIB

PPB = 8  # pages per block in the shared small geometry


def write(ftl, lpage, token, seq_hint=None):
    cost = CostAccumulator()
    ftl.write_page(lpage, token, cost, seq_hint=seq_hint)
    return cost


def write_run(ftl, pairs):
    cost = CostAccumulator()
    lpages, tokens = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    ftl.write_run(lpages, tokens, cost)
    return cost


def test_read_unwritten_returns_erased(hybrid_ftl):
    assert hybrid_ftl.read_token_quiet(0) == ERASED
    assert hybrid_ftl.read_token_quiet(123) == ERASED


def test_read_your_writes_simple(hybrid_ftl):
    write(hybrid_ftl, 5, 100)
    assert hybrid_ftl.read_token_quiet(5) == 100
    write(hybrid_ftl, 5, 200)
    assert hybrid_ftl.read_token_quiet(5) == 200
    hybrid_ftl.check_invariants()


def test_host_token_must_be_positive(hybrid_ftl):
    with pytest.raises(FTLError):
        write(hybrid_ftl, 0, FILLER_TOKEN)


def test_sequential_block_fill_switch_merges(hybrid_ftl):
    cost = write_run(hybrid_ftl, [(i, i + 1) for i in range(PPB)])
    assert hybrid_ftl.merge_stats["switch"] == 1
    assert hybrid_ftl.merge_stats["full"] == 0
    # switch merge of a never-written block needs no erase at all
    assert cost.copy_programs == 0
    for i in range(PPB):
        assert hybrid_ftl.read_token_quiet(i) == i + 1
    hybrid_ftl.check_invariants()


def test_sequential_overwrite_switch_erases_old_block(hybrid_ftl):
    write_run(hybrid_ftl, [(i, i + 1) for i in range(PPB)])
    cost = write_run(hybrid_ftl, [(i, 100 + i) for i in range(PPB)])
    assert hybrid_ftl.merge_stats["switch"] == 2
    assert cost.block_erases >= 1
    assert hybrid_ftl.read_token_quiet(3) == 103


def test_out_of_order_fill_defers_then_full_merges(hybrid_ftl):
    # fill one block fully but in reverse page order: never switchable
    for offset in reversed(range(PPB)):
        write(hybrid_ftl, offset, 50 + offset)
    assert hybrid_ftl.merge_stats["switch"] == 0
    assert hybrid_ftl.pending_merge_count() == 1
    # force the deferred merge
    hybrid_ftl.quiesce()
    assert hybrid_ftl.merge_stats["full"] == 1
    for offset in range(PPB):
        assert hybrid_ftl.read_token_quiet(offset) == 50 + offset
    hybrid_ftl.check_invariants()


def test_partial_in_order_log_partial_merges(hybrid_ftl):
    write_run(hybrid_ftl, [(i, i + 1) for i in range(PPB)])  # block 0 full
    # overwrite only the first 3 pages, in order
    write_run(hybrid_ftl, [(i, 90 + i) for i in range(3)])
    hybrid_ftl.quiesce()
    assert hybrid_ftl.merge_stats["partial"] >= 1
    assert hybrid_ftl.read_token_quiet(0) == 90
    assert hybrid_ftl.read_token_quiet(2) == 92
    assert hybrid_ftl.read_token_quiet(5) == 6  # preserved tail
    hybrid_ftl.check_invariants()


def test_multiple_pending_generations_converge_to_newest(hybrid_ftl):
    lpage = 2  # offset 2 in block 0 -> random-class log
    for generation in range(4 * PPB):
        write(hybrid_ftl, lpage, 1000 + generation)
    assert hybrid_ftl.read_token_quiet(lpage) == 1000 + 4 * PPB - 1
    hybrid_ftl.quiesce()
    assert hybrid_ftl.read_token_quiet(lpage) == 1000 + 4 * PPB - 1
    hybrid_ftl.check_invariants()


def test_full_inorder_log_supersedes_pending_generations(hybrid_ftl):
    # leave a stale out-of-order generation for block 0
    write(hybrid_ftl, 3, 7)
    write(hybrid_ftl, 1, 8)
    stale_fulls = hybrid_ftl.merge_stats["full"]
    # now rewrite the whole block in order: the stale generation must be
    # erased (superseded), never full-merged
    cost = write_run(hybrid_ftl, [(i, 200 + i) for i in range(PPB)])
    assert hybrid_ftl.merge_stats["full"] == stale_fulls
    assert "superseded" in cost.notes
    assert hybrid_ftl.read_token_quiet(1) == 201
    hybrid_ftl.check_invariants()


def test_stream_restart_over_stale_log(hybrid_ftl):
    write(hybrid_ftl, 5, 1)  # stale log page for block 0
    write_run(hybrid_ftl, [(i, 300 + i) for i in range(PPB)])
    # the full rewrite must end in a switch merge despite the stale log
    assert hybrid_ftl.merge_stats["switch"] == 1
    assert hybrid_ftl.read_token_quiet(5) == 305
    hybrid_ftl.check_invariants()


def test_stream_classification_promotes_on_continuation(geometry, chip):
    ftl = HybridLogFTL(
        geometry, chip, HybridConfig(seq_log_blocks=2, rnd_log_blocks=4)
    )
    # first run of block 3 registers a candidate (random pool)
    write_run(ftl, [(3 * PPB + i, 10 + i) for i in range(4)])
    assert len(ftl._open_rnd) == 1 and len(ftl._open_seq) == 0
    # its continuation confirms the stream: the log moves to a seq slot
    write_run(ftl, [(3 * PPB + 4 + i, 20 + i) for i in range(2)])
    assert len(ftl._open_seq) == 1 and len(ftl._open_rnd) == 0
    ftl.check_invariants()


def test_random_writes_stay_in_random_pool(hybrid_ftl):
    # isolated writes at block starts never get confirmed as streams
    for block in range(4):
        write_run(hybrid_ftl, [(block * PPB, block + 1)])
    assert len(hybrid_ftl._open_seq) == 0
    assert len(hybrid_ftl._open_rnd) == 4


def test_random_pool_eviction_is_lru(geometry, chip):
    ftl = HybridLogFTL(
        geometry, chip, HybridConfig(seq_log_blocks=1, rnd_log_blocks=2)
    )
    write_run(ftl, [(0 * PPB + 1, 1)])
    write_run(ftl, [(1 * PPB + 1, 2)])
    write_run(ftl, [(0 * PPB + 2, 3)])  # touch block 0 again (MRU)
    write_run(ftl, [(2 * PPB + 1, 4)])  # evicts block 1 (LRU)
    assert 1 not in ftl._open_rnd
    assert 0 in ftl._open_rnd and 2 in ftl._open_rnd
    ftl.check_invariants()


def test_strict_logs_close_on_out_of_order(geometry, chip):
    ftl = HybridLogFTL(
        geometry,
        chip,
        HybridConfig(seq_log_blocks=2, rnd_log_blocks=2, page_mapped_logs=False),
    )
    write(ftl, 0, 1)
    write(ftl, 1, 2)
    # out-of-order write forces the strict log shut first
    write(ftl, 0, 3)
    assert ftl.read_token_quiet(0) == 3
    assert ftl.read_token_quiet(1) == 2
    ftl.quiesce()
    assert ftl.read_token_quiet(0) == 3
    ftl.check_invariants()


def test_background_disabled_reports_no_work(hybrid_ftl):
    write(hybrid_ftl, 3, 1)
    assert not hybrid_ftl.background_work_pending()
    assert hybrid_ftl.do_background_unit() is None


def test_background_enabled_replenishes_free_pool(geometry, chip):
    ftl = HybridLogFTL(
        geometry,
        chip,
        HybridConfig(
            seq_log_blocks=2, rnd_log_blocks=4, bg_enabled=True, bg_target_blocks=12
        ),
    )
    # scatter random writes to open logs and build pending work
    for block in range(10):
        write(ftl, block * PPB + 3, block + 1)
    assert ftl.background_work_pending()
    drained = ftl.drain_background()
    assert not drained.is_empty()
    assert ftl.free_blocks() >= 12
    ftl.check_invariants()


def test_free_block_conservation_under_load(hybrid_ftl, geometry):
    import random

    rng = random.Random(0)
    for step in range(600):
        lpage = rng.randrange(geometry.logical_pages)
        write(hybrid_ftl, lpage, step + 1)
    hybrid_ftl.check_invariants()
    total = (
        hybrid_ftl.free_blocks()
        + hybrid_ftl.open_log_count()
        + hybrid_ftl.pending_merge_count()
    )
    assert total <= geometry.physical_blocks


def test_spare_too_small_rejected(chip):
    tight = Geometry(
        page_size=2 * KIB, pages_per_block=8, logical_bytes=1 * MIB,
        physical_blocks=64 + 3,
    )
    with pytest.raises(FTLError):
        HybridLogFTL(
            tight, FlashChip(tight), HybridConfig(seq_log_blocks=4, rnd_log_blocks=8)
        )


def test_config_validation():
    with pytest.raises(FTLError):
        HybridConfig(seq_log_blocks=0)
    with pytest.raises(FTLError):
        HybridConfig(bg_enabled=True, bg_target_blocks=0)
    assert HybridConfig(seq_log_blocks=3, rnd_log_blocks=5).log_blocks == 8
