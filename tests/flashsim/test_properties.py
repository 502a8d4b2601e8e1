"""Property-based tests (hypothesis) for core invariants.

The central property is **read-your-writes under arbitrary histories**:
every FTL, with or without a cache in front, must agree with a plain
dict model after any sequence of page writes — while maintaining block
conservation and map consistency (``check_invariants``).
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.flashsim.cache import WriteBackCache
from repro.flashsim.chip import ERASED, FlashChip
from repro.flashsim.ftl.blockmap import BlockMapConfig, BlockMapFTL
from repro.flashsim.ftl.hybrid import HybridConfig, HybridLogFTL
from repro.flashsim.ftl.pagemap import PageMapConfig, PageMapFTL
from repro.flashsim.geometry import Geometry
from repro.flashsim.timing import CostAccumulator
from repro.units import KIB

#: a tiny geometry keeps hypothesis example runs fast while still
#: forcing plenty of merges/GC (16 logical blocks, 6 spare)
TINY = Geometry(
    page_size=2 * KIB,
    pages_per_block=4,
    logical_bytes=16 * 4 * 2 * KIB,
    physical_blocks=16 + 8,
)

page_indexes = st.integers(min_value=0, max_value=TINY.logical_pages - 1)
histories = st.lists(page_indexes, min_size=1, max_size=120)


def _build(kind: str):
    chip = FlashChip(TINY)
    if kind == "hybrid":
        return HybridLogFTL(
            TINY, chip, HybridConfig(seq_log_blocks=2, rnd_log_blocks=3)
        )
    if kind == "hybrid-strict":
        return HybridLogFTL(
            TINY,
            chip,
            HybridConfig(seq_log_blocks=2, rnd_log_blocks=3, page_mapped_logs=False),
        )
    if kind == "hybrid-bg":
        return HybridLogFTL(
            TINY,
            chip,
            HybridConfig(
                seq_log_blocks=2,
                rnd_log_blocks=3,
                bg_enabled=True,
                bg_target_blocks=2,
            ),
        )
    if kind == "blockmap":
        return BlockMapFTL(TINY, chip, BlockMapConfig(replacement_slots=2))
    return PageMapFTL(TINY, chip, PageMapConfig(gc_low_blocks=2))


def _run_history(ftl, history, drain=False):
    model = {}
    cost = CostAccumulator()
    for step, lpage in enumerate(history):
        token = step + 1
        ftl.write_page(lpage, token, cost)
        model[lpage] = token
    if drain:
        ftl.quiesce()
    return model


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(history=histories)
def test_hybrid_read_your_writes(history):
    ftl = _build("hybrid")
    model = _run_history(ftl, history)
    ftl.check_invariants()
    for lpage in range(TINY.logical_pages):
        assert ftl.read_token_quiet(lpage) == model.get(lpage, ERASED)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(history=histories)
def test_hybrid_survives_quiesce(history):
    ftl = _build("hybrid")
    model = _run_history(ftl, history, drain=True)
    ftl.check_invariants()
    for lpage, token in model.items():
        assert ftl.read_token_quiet(lpage) == token


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(history=histories)
def test_hybrid_strict_read_your_writes(history):
    ftl = _build("hybrid-strict")
    model = _run_history(ftl, history)
    ftl.check_invariants()
    for lpage, token in model.items():
        assert ftl.read_token_quiet(lpage) == token


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(history=histories, drain_points=st.lists(st.integers(0, 119), max_size=4))
def test_hybrid_background_interleaved(history, drain_points):
    """Background units interleaved anywhere in the history never change
    what the host reads."""
    ftl = _build("hybrid-bg")
    model = {}
    cost = CostAccumulator()
    points = set(drain_points)
    for step, lpage in enumerate(history):
        ftl.write_page(lpage, step + 1, cost)
        model[lpage] = step + 1
        if step in points:
            ftl.do_background_unit()
    ftl.check_invariants()
    for lpage, token in model.items():
        assert ftl.read_token_quiet(lpage) == token


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(history=histories)
def test_blockmap_read_your_writes(history):
    ftl = _build("blockmap")
    model = _run_history(ftl, history)
    ftl.check_invariants()
    for lpage in range(TINY.logical_pages):
        assert ftl.read_token_quiet(lpage) == model.get(lpage, ERASED)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(history=histories)
def test_pagemap_read_your_writes(history):
    ftl = _build("pagemap")
    model = _run_history(ftl, history)
    ftl.check_invariants()
    for lpage in range(TINY.logical_pages):
        assert ftl.read_token_quiet(lpage) == model.get(lpage, ERASED)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(history=histories)
def test_cache_plus_ftl_read_your_writes(history):
    cache = WriteBackCache(TINY, 8 * TINY.page_size)
    ftl = _build("hybrid")
    model = {}
    cost = CostAccumulator()
    for step, lpage in enumerate(history):
        cache.write(lpage, step + 1)
        cache.destage_if_needed(ftl, cost)
        model[lpage] = step + 1
    for lpage, token in model.items():
        cached = cache.read(lpage)
        value = cached if cached is not None else ftl.read_token_quiet(lpage)
        assert value == token
    cache.flush(ftl, cost)
    ftl.check_invariants()
    for lpage, token in model.items():
        assert ftl.read_token_quiet(lpage) == token


@settings(max_examples=60, deadline=None)
@given(
    lba=st.integers(min_value=0, max_value=TINY.logical_bytes - 1),
    size=st.integers(min_value=1, max_value=4 * TINY.page_size),
)
def test_page_span_covers_extent(lba, size):
    size = min(size, TINY.logical_bytes - lba)
    if size == 0:
        return
    span = TINY.page_span(lba, size)
    assert span.start * TINY.page_size <= lba
    assert span.stop * TINY.page_size >= lba + size
    # minimal: one page fewer would not cover
    assert (span.stop - 1) * TINY.page_size < lba + size


@settings(max_examples=60, deadline=None)
@given(history=histories)
def test_erase_counts_monotone_and_bounded(history):
    ftl = _build("hybrid")
    chip = ftl.chip
    before = chip.erase_counts()
    _run_history(ftl, history)
    after = chip.erase_counts()
    assert (after >= before).all()
    # physical writes bound: erases cannot outnumber programs per block size
    assert after.sum() <= chip.stats.page_programs + TINY.physical_blocks


# ----------------------------------------------------------------------
# controller-level properties: byte extents against a byte-shadow model
# ----------------------------------------------------------------------

extents = st.tuples(
    st.integers(min_value=0, max_value=TINY.logical_bytes - 1),
    st.integers(min_value=1, max_value=3 * TINY.page_size),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(st.tuples(st.booleans(), extents), min_size=1, max_size=60))
def test_controller_extent_read_your_writes(ops):
    """Arbitrary byte-extent writes and reads through the controller
    (RMW, mapping-unit expansion, cache) never violate the shadow —
    the controller's own verification raises on any mismatch."""
    from repro.flashsim.controller import Controller, ControllerConfig

    chip = FlashChip(TINY)
    ftl = HybridLogFTL(TINY, chip, HybridConfig(seq_log_blocks=2, rnd_log_blocks=3))
    controller = Controller(
        TINY,
        ftl,
        ControllerConfig(cache_bytes=8 * TINY.page_size, mapping_unit=2 * TINY.page_size),
    )
    for is_write, (lba, size) in ops:
        size = min(size, TINY.logical_bytes - lba)
        if size <= 0:
            continue
        cost = CostAccumulator()
        if is_write:
            controller.write(lba, size, cost)
        else:
            controller.read(lba, size, cost)  # raises on shadow mismatch
    # a full sweep re-verifies every page at the end
    final = CostAccumulator()
    controller.read(0, TINY.logical_bytes, final)
    ftl.check_invariants()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    io_count=st.integers(min_value=1, max_value=64),
    slots=st.integers(min_value=1, max_value=128),
)
def test_random_pattern_lbas_always_in_bounds(seed, io_count, slots):
    """The random location function never leaves [offset, offset+target)
    and is always IO-aligned, for any seed/slot-count combination."""
    from repro.core.generator import PatternGenerator
    from repro.core.patterns import LocationKind, PatternSpec
    from repro.iotypes import Mode

    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=2 * KIB,
        io_count=io_count,
        target_offset=4 * KIB,
        target_size=slots * 2 * KIB,
        seed=seed,
    )
    for lba in PatternGenerator(spec).program().lbas.tolist():
        assert spec.target_offset <= lba
        assert lba + spec.io_size <= spec.target_offset + spec.target_size
        assert (lba - spec.target_offset) % spec.io_size == 0


@settings(max_examples=60, deadline=None)
@given(
    incr=st.integers(min_value=-8, max_value=8),
    partitions=st.sampled_from([1, 2, 4, 8]),
    index=st.integers(min_value=0, max_value=500),
)
def test_ordered_and_partitioned_lbas_in_bounds(incr, partitions, index):
    from repro.core.patterns import LocationKind, PatternSpec
    from repro.iotypes import Mode

    ordered = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.ORDERED,
        io_size=2 * KIB,
        io_count=64,
        target_size=32 * 2 * KIB,
        incr=incr,
    )
    lba = ordered.lba(index)
    assert 0 <= lba <= ordered.target_size - ordered.io_size

    part = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.PARTITIONED,
        io_size=2 * KIB,
        io_count=64,
        target_size=partitions * 8 * 2 * KIB,
        partitions=partitions,
    )
    lba = part.lba(index)
    assert 0 <= lba <= part.target_size - part.io_size


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(history=histories)
def test_fast_read_your_writes(history):
    from repro.flashsim.ftl.fast import FastConfig, FastFTL

    ftl = FastFTL(TINY, FlashChip(TINY), FastConfig(shared_log_blocks=2))
    model = _run_history(ftl, history)
    ftl.check_invariants()
    for lpage in range(TINY.logical_pages):
        assert ftl.read_token_quiet(lpage) == model.get(lpage, ERASED)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(history=histories)
def test_fast_survives_quiesce(history):
    from repro.flashsim.ftl.fast import FastConfig, FastFTL

    ftl = FastFTL(TINY, FlashChip(TINY), FastConfig(shared_log_blocks=2))
    model = _run_history(ftl, history, drain=True)
    ftl.check_invariants()
    for lpage, token in model.items():
        assert ftl.read_token_quiet(lpage) == token


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(history=histories)
def test_cache_plus_fast_read_your_writes(history):
    from repro.flashsim.ftl.fast import FastConfig, FastFTL

    cache = WriteBackCache(TINY, 8 * TINY.page_size)
    ftl = FastFTL(TINY, FlashChip(TINY), FastConfig(shared_log_blocks=2))
    model = {}
    cost = CostAccumulator()
    for step, lpage in enumerate(history):
        cache.write(lpage, step + 1)
        cache.destage_if_needed(ftl, cost)
        model[lpage] = step + 1
    cache.flush(ftl, cost)
    ftl.check_invariants()
    for lpage, token in model.items():
        assert ftl.read_token_quiet(lpage) == token
