"""Block-mapping FTL: append detection, replacement copies, commit
boundary — the mechanics behind the Kingston DTI's Table 3 row."""

import pytest

from repro.core import baselines, execute, rest_device
from repro.core.methodology import StatePool
from repro.errors import FTLError
from repro.flashsim import build_device
from repro.flashsim.chip import ERASED, FlashChip
from repro.flashsim.ftl.blockmap import BlockMapConfig, BlockMapFTL
from repro.flashsim.geometry import Geometry
from repro.flashsim.timing import CostAccumulator
from repro.units import KIB, MIB, SEC

PPB = 8


def write(ftl, lpage, token):
    cost = CostAccumulator()
    ftl.write_page(lpage, token, cost)
    return cost


def test_read_unwritten_returns_erased(blockmap_ftl):
    assert blockmap_ftl.read_token_quiet(17) == ERASED


def test_append_writes_are_copy_free(blockmap_ftl):
    total_copies = 0
    for offset in range(PPB):
        cost = write(blockmap_ftl, offset, offset + 1)
        total_copies += cost.copy_programs
    assert total_copies == 0
    assert blockmap_ftl.finalize_count == 1  # block completed
    for offset in range(PPB):
        assert blockmap_ftl.read_token_quiet(offset) == offset + 1
    blockmap_ftl.check_invariants()


def test_forward_gap_copies_skipped_pages(blockmap_ftl):
    for offset in range(PPB):
        write(blockmap_ftl, offset, offset + 1)
    cost = write(blockmap_ftl, 4, 99)  # replacement, copies pages 0-3
    assert cost.copy_programs == 4
    assert blockmap_ftl.read_token_quiet(3) == 4
    assert blockmap_ftl.read_token_quiet(4) == 99
    assert blockmap_ftl.read_token_quiet(5) == 6  # still in the old block
    blockmap_ftl.check_invariants()


def test_out_of_order_write_costs_a_full_copy(blockmap_ftl):
    for offset in range(PPB):
        write(blockmap_ftl, offset, offset + 1)
    write(blockmap_ftl, 4, 99)
    # going backwards forces finalize (tail copy) + fresh replacement
    # (head copy): pages 5..7 plus page 0 here
    cost = write(blockmap_ftl, 1, 50)
    assert cost.copy_programs == (PPB - 5) + 1
    assert cost.block_erases >= 1
    assert blockmap_ftl.read_token_quiet(1) == 50
    assert blockmap_ftl.read_token_quiet(4) == 99
    blockmap_ftl.check_invariants()


def test_in_place_rewrites_pathological(blockmap_ftl):
    for offset in range(PPB):
        write(blockmap_ftl, offset, offset + 1)
    first = write(blockmap_ftl, 2, 100)
    second = write(blockmap_ftl, 2, 200)
    # every in-place rewrite after the first pays a near-full block copy
    assert second.copy_programs >= PPB - 2
    assert first.copy_programs >= 2
    assert blockmap_ftl.read_token_quiet(2) == 200


def test_lru_slot_eviction(geometry, chip):
    ftl = BlockMapFTL(geometry, chip, BlockMapConfig(replacement_slots=2))
    write(ftl, 0 * PPB, 1)
    write(ftl, 1 * PPB, 2)
    write(ftl, 2 * PPB, 3)  # evicts (finalises) block 0's replacement
    assert ftl.open_replacement_count() == 2
    assert ftl.finalize_count == 1
    assert ftl.read_token_quiet(0) == 1
    ftl.check_invariants()


def test_commit_boundary_finalises_partial_ios(geometry, chip):
    boundary = 4 * geometry.page_size
    ftl = BlockMapFTL(
        geometry,
        chip,
        BlockMapConfig(replacement_slots=2, sync_commit_boundary=boundary),
    )
    cost = CostAccumulator()
    # a 2-page write ending off the 4-page boundary: replacement closes
    ftl.write_page(0, 1, cost)
    ftl.write_page(1, 2, cost)
    ftl.note_io_boundary(2 * geometry.page_size, cost)
    assert ftl.open_replacement_count() == 0
    assert ftl.finalize_count == 1
    # a write ending exactly on the boundary stays open
    ftl.write_page(2, 3, cost)
    ftl.write_page(3, 4, cost)
    ftl.note_io_boundary(boundary, cost)
    assert ftl.open_replacement_count() == 1
    ftl.check_invariants()


def test_quiesce_finalises_everything(blockmap_ftl):
    write(blockmap_ftl, 0, 1)
    write(blockmap_ftl, PPB, 2)
    blockmap_ftl.quiesce()
    assert blockmap_ftl.open_replacement_count() == 0
    assert blockmap_ftl.read_token_quiet(0) == 1
    assert blockmap_ftl.read_token_quiet(PPB) == 2
    blockmap_ftl.check_invariants()


def test_random_overwrites_converge(geometry, blockmap_ftl):
    import random

    rng = random.Random(1)
    model = {}
    for step in range(400):
        lpage = rng.randrange(geometry.logical_pages)
        write(blockmap_ftl, lpage, step + 1)
        model[lpage] = step + 1
    for lpage, token in model.items():
        assert blockmap_ftl.read_token_quiet(lpage) == token
    blockmap_ftl.check_invariants()


def test_filler_never_leaks_to_host(blockmap_ftl):
    # write only page 4: pages 0-3 get filler in the replacement
    write(blockmap_ftl, 4, 77)
    for offset in range(4):
        assert blockmap_ftl.read_token_quiet(offset) == ERASED
    blockmap_ftl.quiesce()
    for offset in range(4):
        assert blockmap_ftl.read_token_quiet(offset) == ERASED


def test_spare_requirement_enforced():
    tight = Geometry(
        page_size=2 * KIB, pages_per_block=8, logical_bytes=1 * MIB,
        physical_blocks=64 + 2,
    )
    with pytest.raises(FTLError):
        BlockMapFTL(tight, FlashChip(tight), BlockMapConfig(replacement_slots=4))


def test_config_validation():
    with pytest.raises(FTLError):
        BlockMapConfig(replacement_slots=0)
    with pytest.raises(FTLError):
        BlockMapConfig(sync_commit_boundary=-1)


def test_sw_tail_copies_reach_the_ftl_counters():
    """An SW baseline on kingston_dti enforced at seed 502 copies old
    blocks' tails into replacements as it finalises them.  The FTL's
    merge copy counters show exactly the chip's reads and its programs
    beyond the host pages, and ``map_flushes`` is the finalisations
    over the flush period."""
    device = build_device("kingston_dti")
    StatePool().ensure(device, seed=502)
    rest_device(device, 120 * SEC)
    spec = baselines(
        io_size=32 * KIB,
        io_count=256,
        random_target_size=device.capacity,
        sequential_target_size=device.capacity,
    )["SW"]
    before = device.metrics()
    execute(device, spec)
    after = device.metrics()
    delta = {name: after[name] - before[name] for name in after}
    host_pages = 256 * 32 * KIB // device.geometry.page_size
    copies = delta["chip.page_programs"] - host_pages
    assert copies > 0
    assert delta["ftl.merge_copy_programs"] == copies
    assert delta["ftl.merge_copy_reads"] == delta["chip.page_reads"]
    every = device.ftl.config.map_flush_every_blocks
    assert after["ftl.map_flushes"] == after["ftl.finalizations"] // every > 0
