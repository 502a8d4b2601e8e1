"""Hybrid FTL run-level behaviour: ``write_run`` splitting a batch
into its contiguous runs, the stream tail table, pool bookkeeping under
mixed traffic, and an invalid token inside an array write run."""

import pickle

import numpy as np
import pytest

from repro.errors import FTLError
from repro.flashsim.chip import ERASED, FlashChip, NoFaults
from repro.flashsim.ftl.base import FILLER_TOKEN
from repro.flashsim.ftl.hybrid import HybridConfig, HybridLogFTL
from repro.flashsim.geometry import Geometry
from repro.flashsim.timing import CostAccumulator
from repro.units import KIB, MIB

PPB = 8


@pytest.fixture
def ftl(geometry, chip):
    return HybridLogFTL(
        geometry, chip, HybridConfig(seq_log_blocks=2, rnd_log_blocks=4)
    )


def write_run(ftl, pairs):
    cost = CostAccumulator()
    lpages, tokens = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    ftl.write_run(lpages, tokens, cost)
    return cost


def test_write_pages_splits_non_contiguous_batches(ftl):
    # one batch, two separate runs (a gap in the middle)
    pairs = [(0, 1), (1, 2), (5, 3), (6, 4)]
    write_run(ftl, pairs)
    # run 1 started at offset 0 -> a stream candidate was registered
    assert ftl._stream_tails.get(0) == 2
    for lpage, token in pairs:
        assert ftl.read_token_quiet(lpage) == token
    ftl.check_invariants()


def test_stream_tail_advances_across_batches(ftl):
    write_run(ftl, [(0, 1), (1, 2)])
    assert ftl._stream_tails[0] == 2
    write_run(ftl, [(2, 3), (3, 4)])
    assert ftl._stream_tails[0] == 4
    # the confirmed stream now occupies a sequential slot
    assert 0 in ftl._open_seq


def test_stream_rolls_into_next_block(ftl):
    # filling block 0 completely registers block 1 as a candidate
    write_run(ftl, [(i, i + 1) for i in range(PPB)])
    assert ftl._stream_tails.get(1) == 0
    # and the continuation into block 1 is seq-classified immediately?
    # no: offset 0 only registers; the continuation at offset>0 confirms
    write_run(ftl, [(PPB, 100)])
    write_run(ftl, [(PPB + 1, 101)])
    assert 1 in ftl._open_seq
    ftl.check_invariants()


def test_stream_tail_table_is_bounded(geometry, chip):
    ftl = HybridLogFTL(
        geometry, chip, HybridConfig(seq_log_blocks=2, rnd_log_blocks=2)
    )
    capacity = ftl._stream_tail_capacity
    for block in range(capacity + 16):
        if block >= geometry.logical_blocks:
            break
        write_run(ftl, [(block * PPB, 1 + block)])
    assert len(ftl._stream_tails) <= capacity


def test_wrapping_stream_restarts_cleanly(ftl):
    # two laps over two blocks, in order: all switch merges, no fulls
    laps = [(i % (2 * PPB), 1 + i) for i in range(4 * PPB)]
    for lpage, token in laps:
        write_run(ftl, [(lpage, token)])
    assert ftl.merge_stats["full"] == 0
    assert ftl.merge_stats["switch"] == 4
    ftl.check_invariants()


def test_interleaved_streams_within_pool_limit(ftl):
    # two concurrent streams fit the 2 seq slots: all switch merges
    for offset in range(PPB):
        write_run(ftl, [(offset, 10 + offset)])
        write_run(ftl, [(PPB + offset, 20 + offset)])
    assert ftl.merge_stats["switch"] == 2
    assert ftl.merge_stats["full"] == 0
    ftl.check_invariants()


def test_more_streams_than_slots_degrade(geometry, chip):
    ftl = HybridLogFTL(
        geometry, chip, HybridConfig(seq_log_blocks=2, rnd_log_blocks=2)
    )
    # four interleaved streams against two slots: evictions force
    # deferred merges that a 2-slot device must pay
    for offset in range(PPB):
        for stream in range(4):
            write_run(ftl, [(stream * PPB + offset, 1 + stream * PPB + offset)])
    ftl.quiesce()
    assert ftl.merge_stats["full"] + ftl.merge_stats["partial"] > 0
    for stream in range(4):
        for offset in range(PPB):
            assert ftl.read_token_quiet(stream * PPB + offset) == (
                1 + stream * PPB + offset
            )
    ftl.check_invariants()


def test_mixed_random_and_stream_traffic(ftl, geometry):
    import random

    rng = random.Random(5)
    model = {}
    stream_position = 0
    for step in range(300):
        if step % 3 == 0:  # stream write
            lpage = stream_position % geometry.logical_pages
            stream_position += 1
        else:  # random write
            lpage = rng.randrange(geometry.logical_pages)
        write_run(ftl, [(lpage, step + 1)])
        model[lpage] = step + 1
    for lpage, token in model.items():
        assert ftl.read_token_quiet(lpage) == token
    ftl.check_invariants()


def test_open_log_counts_by_pool(ftl):
    write_run(ftl, [(3, 1)])  # random-class
    write_run(ftl, [(PPB, 2), (PPB + 1, 3)])  # candidate then...
    write_run(ftl, [(PPB + 2, 4)])  # ...confirmed stream
    assert len(ftl._open_rnd) == 1
    assert len(ftl._open_seq) == 1
    assert ftl.open_log_count() == 2


def test_invalid_token_mid_run_raises_where_the_scalar_path_does(geometry):
    """A filler token inside a run: the log append stops before it and
    ``write_page`` raises on it, leaving what the reference chip's
    page-by-page path leaves."""
    states = []
    for injector in (None, NoFaults()):
        chip = FlashChip(geometry, fault_injector=injector)
        ftl = HybridLogFTL(
            geometry, chip, HybridConfig(seq_log_blocks=2, rnd_log_blocks=4)
        )
        tokens = np.array([5, 6, 7, FILLER_TOKEN, 9], dtype=np.int64)
        with pytest.raises(FTLError):
            ftl.write_run(np.arange(2, 7), tokens, CostAccumulator(), ascending=True)
        assert [ftl.read_token_quiet(lpage) for lpage in range(2, 7)] == [
            5, 6, 7, ERASED, ERASED
        ]
        states.append((pickle.dumps(ftl.snapshot()), chip.snapshot()["tokens"].tobytes()))
    assert states[0] == states[1]
