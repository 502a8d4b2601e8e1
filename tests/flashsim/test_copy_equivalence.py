"""Block-range copies, log-append runs and range primitives must be
invisible.

Merges and block copies in the hybrid, block-map and FAST FTLs move
whole page ranges with :meth:`FlashChip.copy_range`, hybrid host writes
land in their log as program runs (through a RAM cache's run write on a
cached device), block-map in-order appends land as
one program run, and page-map host writes are closed-form log appends
that cross blocks and repeat lpages, with the real ``write_page`` at
each GC watermark — the same primitives the closed-form kernels call
over whole windows.  Installing a fault injector
— here one that never fails (:class:`~repro.flashsim.chip.NoFaults`) —
sends every one of those paths through the scalar per-page reference
loop.  Random programs (mixed reads and writes, unaligned sizes, runs
crossing block boundaries, pauses that let background reclamation run)
must leave both twins bit-identical: device fingerprint, FTL state,
chip and FTL counters and every trace column.

The second half pins the page-map host-log append against the
``write_page`` loop (repeated lpages, a wear move made due by a
retire), ``program_span`` against one ``program_run`` per block,
``copy_pages``'s edges (a zero-length copy, an ERASED source, a retired
source block) and an injected program failure part-way through a
merge, charged by ``_copy_range`` as a per-page loop would charge it.
"""

from __future__ import annotations

import pickle
from dataclasses import astuple

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.generator import IOProgram
from repro.errors import BadBlockError, ProgramError
from repro.flashsim import analytic
from repro.flashsim.chip import ERASED, FlashChip, NoFaults
from repro.flashsim.controller import Controller, ControllerConfig
from repro.flashsim.device import FlashDevice
from repro.flashsim.ftl.base import FILLER_TOKEN
from repro.flashsim.ftl.blockmap import BlockMapConfig, BlockMapFTL
from repro.flashsim.ftl.fast import FastConfig, FastFTL
from repro.flashsim.ftl.hybrid import HybridConfig, HybridLogFTL
from repro.flashsim.ftl.pagemap import PageMapConfig, PageMapFTL
from repro.flashsim.geometry import Geometry
from repro.flashsim.host import SyncHost
from repro.flashsim.timing import CostAccumulator, TimingSpec
from repro.flashsim.trace import _COLUMNS
from repro.units import KIB

#: 2 KiB pages, 8 pages per block, 32 logical blocks: small enough for
#: many hypothesis examples, tight enough that merges happen constantly
GEOMETRY = Geometry(
    page_size=2 * KIB,
    pages_per_block=8,
    logical_bytes=32 * 8 * 2 * KIB,
    physical_blocks=32 + 16,
)

FAMILIES = {
    "hybrid": lambda chip: HybridLogFTL(
        GEOMETRY, chip, HybridConfig(seq_log_blocks=2, rnd_log_blocks=3)
    ),
    "hybrid-in-order": lambda chip: HybridLogFTL(
        GEOMETRY,
        chip,
        HybridConfig(seq_log_blocks=2, rnd_log_blocks=3, page_mapped_logs=False),
    ),
    "hybrid-bg": lambda chip: HybridLogFTL(
        GEOMETRY,
        chip,
        HybridConfig(
            seq_log_blocks=2, rnd_log_blocks=3, bg_enabled=True, bg_target_blocks=4
        ),
    ),
    "hybrid-in-order-bg": lambda chip: HybridLogFTL(
        GEOMETRY,
        chip,
        HybridConfig(
            seq_log_blocks=2,
            rnd_log_blocks=3,
            page_mapped_logs=False,
            bg_enabled=True,
            bg_target_blocks=4,
        ),
    ),
    "blockmap": lambda chip: BlockMapFTL(
        GEOMETRY, chip, BlockMapConfig(replacement_slots=2)
    ),
    "blockmap-commit": lambda chip: BlockMapFTL(
        GEOMETRY,
        chip,
        BlockMapConfig(replacement_slots=2, sync_commit_boundary=8 * KIB),
    ),
    "fast": lambda chip: FastFTL(GEOMETRY, chip, FastConfig(shared_log_blocks=3)),
    "pagemap": lambda chip: PageMapFTL(GEOMETRY, chip, PageMapConfig()),
    "pagemap-wear": lambda chip: PageMapFTL(
        GEOMETRY, chip, PageMapConfig(wear_threshold=2)
    ),
    "pagemap-cost-benefit": lambda chip: PageMapFTL(
        GEOMETRY, chip, PageMapConfig(gc_policy="cost-benefit")
    ),
}

#: page-map configurations whose host-log appends are pinned: the
#: default (greedy buckets), wear levelling (stretches end at block
#: edges) and cost-benefit GC (no buckets)
PAGEMAP_FAMILIES = ("pagemap", "pagemap-wear", "pagemap-cost-benefit")


def _build(
    family: str, oracle: bool, mapping_unit: int = 0, cache_bytes: int = 0
) -> FlashDevice:
    chip = FlashChip(GEOMETRY, fault_injector=NoFaults() if oracle else None)
    ftl = FAMILIES[family](chip)
    controller = Controller(
        GEOMETRY,
        ftl,
        ControllerConfig(mapping_unit=mapping_unit, cache_bytes=cache_bytes),
    )
    return FlashDevice(
        name=f"copy-{family}",
        geometry=GEOMETRY,
        timing=TimingSpec(),
        chip=chip,
        ftl=ftl,
        controller=controller,
    )


SECTOR = 512
_ios = st.tuples(
    # start sector: half the IOs focus on the first four blocks, so
    # blocks get rewritten, gap-filled and merged repeatedly
    st.one_of(
        st.integers(0, 4 * GEOMETRY.block_size // SECTOR - 1),
        st.integers(0, GEOMETRY.logical_bytes // SECTOR - 1),
    ),
    # sectors: mostly within a page or two, up to 48 KiB (three blocks)
    st.one_of(st.integers(1, 8), st.integers(1, 96)),
    st.booleans(),  # write?
    st.sampled_from((0.0, 0.0, 0.0, 500.0, 50_000.0)),  # pause (usec)
)
programs = st.lists(_ios, min_size=1, max_size=80)


def _program(ios) -> IOProgram:
    lbas = np.array([start * SECTOR for start, _, _, _ in ios], dtype=np.int64)
    sizes = np.array([count * SECTOR for _, count, _, _ in ios], dtype=np.int64)
    sizes = np.minimum(sizes, GEOMETRY.logical_bytes - lbas)
    return IOProgram(
        lbas=lbas,
        sizes=sizes,
        writes=np.array([write for _, _, write, _ in ios], dtype=np.bool_),
        gaps=np.array([gap for _, _, _, gap in ios], dtype=np.float64),
    )


def _observe(device: FlashDevice, trace) -> dict:
    return {
        "fingerprint": device.fingerprint(),
        "metrics": device.metrics(),
        "ftl": pickle.dumps(device.ftl.snapshot()),
        "columns": {name: trace.column(name).tobytes() for name, _ in _COLUMNS},
        "csv": trace.to_csv(),
    }


def _run_both(
    family: str, ios, mapping_unit: int = 0, cache_bytes: int = 0
) -> tuple[dict, dict]:
    program = _program(ios)
    observed = []
    for oracle in (False, True):
        device = _build(family, oracle, mapping_unit, cache_bytes)
        trace = SyncHost(device).run_program(program)
        device.drain()
        device.ftl.quiesce()
        device.check_invariants()
        observed.append(_observe(device, trace))
    return observed[0], observed[1]


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(ios=programs)
def test_fast_paths_match_the_scalar_oracle(family, ios):
    fast, oracle = _run_both(family, ios)
    assert fast == oracle


@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(ios=programs)
def test_hybrid_with_a_mapping_unit_matches_the_oracle(ios):
    """A 4 KiB mapping unit read-modify-writes partial edges."""
    fast, oracle = _run_both("hybrid", ios, mapping_unit=4 * KIB)
    assert fast == oracle


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(ios=programs)
def test_cached_in_order_hybrid_matches_the_oracle(ios):
    """Shaped like ``samsung``: a RAM write-back cache (64 KiB, four
    blocks' worth) over a 4 KiB mapping unit and in-order-only logs.
    The cache's run writes, its destages as sorted arrays and the
    partial edges' read-modify-writes must leave the ``cache.*``
    counters equal too — the flush at the end destages what is left."""
    fast, oracle = _run_both(
        "hybrid-in-order", ios, mapping_unit=4 * KIB, cache_bytes=64 * KIB
    )
    assert {k: v for k, v in fast["metrics"].items() if k.startswith("cache.")} == {
        k: v for k, v in oracle["metrics"].items() if k.startswith("cache.")
    }
    assert "cache.hits" in fast["metrics"]
    assert fast == oracle


def test_cached_programs_hit_and_destage():
    """Guards the cached programs above against testing nothing: large
    writes (two blocks, on the cache's run write) overflow the cache,
    destaging sorted groups, then large reads are served partly from
    the cache and partly from flash."""
    block = GEOMETRY.block_size // SECTOR
    ios = [(i * block, 2 * block, True, 0.0) for i in range(0, 24, 2)]
    ios += [(i * block + 3, block + 5, True, 0.0) for i in range(20, 24)]
    ios += [(i * block, 3 * block, False, 0.0) for i in range(0, 24, 3)]
    fast, oracle = _run_both(
        "hybrid-in-order", ios, mapping_unit=4 * KIB, cache_bytes=64 * KIB
    )
    assert fast == oracle
    metrics = fast["metrics"]
    assert metrics["cache.destaged_groups"] > 0
    assert metrics["cache.hits"] > 0
    assert metrics["cache.misses"] > 0


#: zero-gap write programs: one read/write stretch long enough for
#: kernel windows, IOs of up to three blocks, half of them rewriting the
#: first four blocks so lpages repeat inside a window
write_programs = st.lists(
    st.tuples(
        st.one_of(
            st.integers(0, 4 * GEOMETRY.block_size // SECTOR - 1),
            st.integers(0, GEOMETRY.logical_bytes // SECTOR - 1),
        ),
        st.one_of(st.integers(1, 8), st.integers(1, 96)),
        st.just(True),
        st.just(0.0),
    ),
    min_size=analytic.MIN_KERNEL_STRETCH,
    max_size=120,
)


@pytest.mark.parametrize("family", PAGEMAP_FAMILIES)
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(ios=write_programs)
def test_pagemap_write_windows_match_the_scalar_oracle(family, ios):
    """Whole write windows — runs crossing several blocks, repeated
    lpages, garbage collection — through the kernel (default and
    cost-benefit) or the per-IO ``write_run`` (wear levelling, which
    the kernels decline)."""
    fast, oracle = _run_both(family, ios)
    assert fast == oracle


def test_pagemap_windows_cross_blocks_repeat_lpages_and_collect():
    """Guards the window programs above against testing nothing: one
    deterministic program takes a kernel window whose IOs cross blocks
    and rewrite each other's lpages, and that runs collections."""
    ios = [((i * 53) % 96 * 4, 40, True, 0.0) for i in range(120)]
    analytic.STATS.reset()
    fast, oracle = _run_both("pagemap", ios)
    assert fast == oracle
    assert analytic.STATS.write_windows >= 1
    assert analytic.STATS.epoch_windows >= 1
    assert fast["metrics"]["ftl.gc_collections"] > 0
    analytic.STATS.reset()


def _pagemap_pair(config: PageMapConfig, warmup: list[int]):
    """Two page-map FTLs in the same state after ``warmup`` writes."""
    pair = []
    for _ in range(2):
        ftl = PageMapFTL(GEOMETRY, FlashChip(GEOMETRY), config)
        cost = CostAccumulator()
        for token, lpage in enumerate(warmup, start=1):
            ftl.write_page(lpage, token, cost)
        pair.append(ftl)
    return pair


def _ftl_state(ftl: PageMapFTL) -> tuple:
    return (
        pickle.dumps(ftl.snapshot()),
        ftl._min_bucket,
        ftl.metrics(),
        _chip_state(ftl.chip),
    )


@pytest.mark.parametrize(
    "config",
    [
        PageMapConfig(),
        PageMapConfig(wear_threshold=2),
        PageMapConfig(gc_policy="cost-benefit"),
    ],
    ids=["greedy", "wear", "cost-benefit"],
)
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    warmup=st.lists(st.integers(0, GEOMETRY.logical_pages - 1), max_size=400),
    batch=st.lists(
        st.one_of(st.integers(0, 15), st.integers(0, GEOMETRY.logical_pages - 1)),
        min_size=1,
        max_size=200,
    ),
)
def test_pagemap_write_run_with_repeats_matches_the_write_page_loop(
    config, warmup, batch
):
    """A non-ascending ``write_run`` batch with repeated lpages equals
    the ``write_page`` loop: snapshot, GC bucket floor, counters, chip,
    cost and invariants."""
    run_ftl, loop_ftl = _pagemap_pair(config, warmup)
    lpages = np.array(batch, dtype=np.int64)
    tokens = np.arange(1000, 1000 + lpages.size, dtype=np.int64)
    run_cost, loop_cost = CostAccumulator(), CostAccumulator()
    run_ftl.write_run(lpages, tokens, run_cost)
    for lpage, token in zip(batch, tokens.tolist()):
        loop_ftl.write_page(lpage, token, loop_cost)
    run_ftl.check_invariants()
    loop_ftl.check_invariants()
    assert _ftl_state(run_ftl) == _ftl_state(loop_ftl)
    assert run_cost == loop_cost


def test_pagemap_wear_stretch_ends_where_a_retire_makes_a_move_due():
    """With wear levelling on, retiring a block can make a wear move
    due: here the next free block has never been erased while every
    other block has, so the moment it retires it is the coldest data
    block by more than the threshold.  ``write_run`` must stop its
    stretch at that block edge and move it, as the ``write_page`` loop
    does right after the retire."""
    config = PageMapConfig(wear_threshold=2)
    run_ftl, loop_ftl = _pagemap_pair(config, list(range(PPB)))
    for ftl in (run_ftl, loop_ftl):
        fresh = ftl._free[0]
        ftl.chip._erase_count[:] = 3
        ftl.chip._erase_count[fresh] = 0
        assert not ftl._wear_pending()
    lpages = np.arange(PPB, 4 * PPB, dtype=np.int64)
    tokens = lpages + 1000
    run_cost, loop_cost = CostAccumulator(), CostAccumulator()
    run_ftl.write_run(lpages, tokens, run_cost, ascending=True)
    for lpage, token in zip(lpages.tolist(), tokens.tolist()):
        loop_ftl.write_page(lpage, token, loop_cost)
    assert loop_ftl.wear_relocations > 0
    run_ftl.check_invariants()
    assert _ftl_state(run_ftl) == _ftl_state(loop_ftl)
    assert run_cost == loop_cost


def test_programs_exercise_every_merge_kind():
    """A sweep of sequential and scattered writes reaches switch,
    partial and full merges on the hybrid twins (guards the random
    programs above against silently testing nothing)."""
    ios = [(i * 16, 16, True, 0.0) for i in range(64)]  # 8 KiB sequential
    ios += [((i * 37) % 128 * 8, 12, True, 0.0) for i in range(80)]  # scattered
    ios += [(i * 32, 8, True, 0.0) for i in range(8)]  # in-order block prefixes
    fast, oracle = _run_both("hybrid", ios)
    assert fast == oracle
    metrics = fast["metrics"]
    for kind in ("switch", "partial", "full"):
        assert metrics[f"ftl.{kind}_merges"] > 0, kind
    assert metrics["ftl.merge_copy_reads"] > 0


@pytest.mark.parametrize("family", ("hybrid", "hybrid-in-order", "blockmap", "fast"))
def test_merge_copies_reach_the_ftl_counters(family):
    """Every page a merge family copies is counted: across ``quiesce``,
    which programs no host page, the FTL's merge copy counters move
    exactly as the chip's read and program counters."""
    ios = [((i * 37) % 128 * 8, 12, True, 0.0) for i in range(80)]  # scattered
    device = _build(family, oracle=False)
    SyncHost(device).run_program(_program(ios))
    before = device.metrics()
    device.ftl.quiesce()
    after = device.metrics()
    delta = {name: after[name] - before[name] for name in after}
    assert delta["ftl.merge_copy_programs"] > 0
    assert delta["ftl.merge_copy_programs"] == delta["chip.page_programs"]
    assert delta["ftl.merge_copy_reads"] == delta["chip.page_reads"]


def test_blockmap_gap_past_the_old_blocks_end():
    """A forward gap that starts past the old data block's write point
    pads with filler and reads nothing (pages 0-3 written, evicted, then
    pages 4 and 7 of the same block)."""
    page = GEOMETRY.page_size // SECTOR
    block = GEOMETRY.block_size // SECTOR
    ios = [
        (0, 4 * page, True, 0.0),
        (block, page, True, 0.0),
        (2 * block, page, True, 0.0),  # evicts block 0: data ends at page 4
        (4 * page, page, True, 0.0),
        (7 * page, page, True, 0.0),  # gap 5-6 lies past the old block's end
    ]
    fast, oracle = _run_both("blockmap", ios)
    assert fast == oracle
    assert fast["metrics"]["chip.page_reads"] == 4


# ----------------------------------------------------------------------
# copy_pages edges
# ----------------------------------------------------------------------

PPB = GEOMETRY.pages_per_block


def _filled_chip(**kwargs) -> FlashChip:
    """Block 0 fully programmed with tokens 1..PPB, block 1 half."""
    chip = FlashChip(GEOMETRY, **kwargs)
    chip.program_run(0, 0, np.arange(1, PPB + 1))
    chip.program_run(1, 0, np.arange(101, 101 + PPB // 2))
    return chip


def _chip_state(chip: FlashChip) -> tuple:
    return (
        chip._tokens.tobytes(),
        chip._write_point.tobytes(),
        chip._bad.tobytes(),
        astuple(chip.stats),
    )


@pytest.mark.parametrize("oracle", (False, True))
def test_program_span_equals_one_run_per_block(oracle):
    """A span from page 5 of block 2 through blocks 7 and 3 programs
    what three ``program_run`` calls would, and returns its pages; a
    span into a block that is not erased raises before programming."""
    chip = FlashChip(GEOMETRY, fault_injector=NoFaults() if oracle else None)
    runs = FlashChip(GEOMETRY)
    for target in (chip, runs):
        target.program_run(2, 0, np.arange(1, 6))
    tokens = np.arange(100, 100 + 3 + PPB + 2)
    ppages = chip.program_span(np.array([2, 7, 3]), 5, tokens)
    runs.program_run(2, 5, tokens[:3])
    runs.program_run(7, 0, tokens[3 : 3 + PPB])
    runs.program_run(3, 0, tokens[3 + PPB :])
    assert _chip_state(chip) == _chip_state(runs)
    assert ppages.tolist() == [2 * PPB + 5, 2 * PPB + 6, 2 * PPB + 7] + list(
        range(7 * PPB, 8 * PPB)
    ) + [3 * PPB, 3 * PPB + 1]
    before = _chip_state(chip)
    with pytest.raises(ProgramError):
        chip.program_span(np.array([3, 7]), 2, np.arange(1, PPB))
    if not oracle:
        assert _chip_state(chip) == before


@pytest.mark.parametrize("oracle", (False, True))
def test_zero_length_copy_is_a_no_op(oracle):
    chip = _filled_chip(fault_injector=NoFaults() if oracle else None)
    before = _chip_state(chip)
    assert chip.copy_pages(np.empty(0, dtype=np.int64), 5, 0, FILLER_TOKEN) == 0
    assert _chip_state(chip) == before


@pytest.mark.parametrize("oracle", (False, True))
def test_erased_and_missing_sources_become_filler(oracle):
    chip = _filled_chip(fault_injector=NoFaults() if oracle else None)
    # page 6 of block 1 was never programmed (reads ERASED); -1 = no source
    sources = np.array([2, PPB + 6, -1, PPB + 1])
    reads = chip.copy_pages(sources, 5, 0, FILLER_TOKEN)
    assert reads == 3
    assert chip.read_many(np.arange(5 * PPB, 5 * PPB + 4)).tolist() == [
        3, FILLER_TOKEN, FILLER_TOKEN, 102
    ]
    assert chip.write_point(5) == 4


def _copy_into(chip: FlashChip, sources, target: int, start: int):
    """Run one copy, returning (exception type, chip state) afterwards."""
    try:
        chip.copy_pages(np.asarray(sources), target, start, FILLER_TOKEN)
        raised = None
    except (BadBlockError, ProgramError) as exc:
        raised = type(exc)
    return raised, _chip_state(chip)


def _reference_copy(chip: FlashChip, sources, target: int, start: int):
    """The interleaved per-page loop the merges ran before copy_pages."""
    try:
        for i, source in enumerate(sources):
            token = chip.read(*divmod(source, PPB)) if source >= 0 else ERASED
            chip.program(target, start + i, token if token != ERASED else FILLER_TOKEN)
        raised = None
    except (BadBlockError, ProgramError) as exc:
        raised = type(exc)
    return raised, _chip_state(chip)


def test_mixed_copy_keeps_the_scalar_loops_counters():
    """Missing (-1) sources, an ERASED source and pages from two source
    blocks, copied into the middle of a partly written target: the
    validated-once copy leaves the tokens, write points and chip
    counters of the interleaved per-page loop."""
    sources = [PPB + 2, -1, 3, PPB + 7, -1, 0, PPB + 1]
    fast = _filled_chip()
    fast.program_run(5, 0, np.array([41]))
    reference = _filled_chip()
    reference.program_run(5, 0, np.array([41]))
    assert _copy_into(fast, sources, 5, 1) == _reference_copy(reference, sources, 5, 1)
    assert fast.stats.page_reads == 5
    assert fast.stats.page_programs == PPB + PPB // 2 + 1 + len(sources)


def test_retired_source_block_raises_like_the_scalar_loop():
    """A source block retired by endurance: same error, same page reads,
    same partial target, with or without the scalar path forced."""
    sources = [0, 1, PPB + 0, PPB + 1, 2]
    outcomes = []
    for injector in (None, NoFaults()):
        chip = _filled_chip(fault_injector=injector)
        chip.mark_bad(1)  # what an endurance failure leaves behind
        outcomes.append(_copy_into(chip, sources, 5, 0))
    reference_chip = _filled_chip()
    reference_chip.mark_bad(1)
    reference = _reference_copy(reference_chip, sources, 5, 0)
    assert outcomes[0] == outcomes[1] == reference
    assert reference[0] is BadBlockError
    assert reference_chip.stats.page_reads == 2
    assert reference_chip.write_point(5) == 2


class _FailNthProgram:
    def __init__(self, n: int) -> None:
        self.n = n
        self.seen = 0

    def program_fails(self, block: int, page_offset: int) -> bool:
        self.seen += 1
        return self.seen == self.n

    def erase_fails(self, block: int) -> bool:
        return False


def _merge_with_failure(loop: bool, fail_at: int):
    """Fill a hybrid log out of order, then fail a program mid-merge.

    The merge copies through the FTL's own ``_copy_range`` (the chip's
    ``copy_range``, charged from its counter deltas), or with ``loop``
    through :func:`_reference_loop`, which programs and charges page by
    page itself.
    """
    chip = FlashChip(GEOMETRY)
    ftl = HybridLogFTL(GEOMETRY, chip, HybridConfig(seq_log_blocks=2, rnd_log_blocks=3))
    cost = CostAccumulator()
    for offset in range(PPB):
        ftl.write_page(offset, offset + 1, cost)  # data block for lblock 0
    for offset in (5, 1, 3):
        ftl.write_page(offset, 50 + offset, cost)  # out-of-order log
    chip.fault_injector = _FailNthProgram(fail_at)
    log = ftl._open_rnd.get(0) or ftl._open_seq.get(0)
    ftl._pop_open(0)
    if loop:
        ftl._copy_range = lambda *args: _reference_loop(ftl, *args)
    with pytest.raises(ProgramError):
        ftl._merge(log, cost)
    return _chip_state(chip), ftl.metrics(), (cost.copy_reads, cost.copy_programs)


def _reference_loop(ftl, target, start, stop, base, offsets, ppages, sub):
    """A block-range copy as the merges once ran it: for each target
    page, read its source (the overlay's log page, else the old block's
    page below its write point) and program it, charging each read and
    program as it succeeds."""
    chip = ftl.chip
    overlay = dict(zip(np.asarray(offsets).tolist(), np.asarray(ppages).tolist()))
    base_end = chip.write_point(base) if base >= 0 else 0
    for offset in range(start, stop):
        source = overlay.get(offset, base * PPB + offset if offset < base_end else -1)
        token = ERASED
        if source >= 0:
            token = chip.read(*divmod(source, PPB))
            sub.copy_reads += 1
            ftl.merge_copy_reads += 1
        chip.program(target, offset, token if token != ERASED else FILLER_TOKEN)
        sub.copy_programs += 1
        ftl.merge_copy_programs += 1


@pytest.mark.parametrize("fail_at", (1, 4, PPB))
def test_injected_program_failure_mid_merge_matches_the_scalar_loop(fail_at):
    """Tokens, write points, chip counters and the FTL's copy counters
    after a failed full merge equal the per-page loop's."""
    merged, looped = _merge_with_failure(False, fail_at), _merge_with_failure(True, fail_at)
    assert merged == looped
    # the failure struck mid-copy: every page up to it was read, the
    # pages before it were programmed
    assert merged[2] == (fail_at, fail_at - 1)
