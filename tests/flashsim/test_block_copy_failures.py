"""Block-range copies under failure, against the scalar oracle.

Every merge-based family copies pages through
:meth:`~repro.flashsim.chip.FlashChip.copy_range`: one slice, one
overlay gather and one store on a plain chip, the per-page
:meth:`~repro.flashsim.chip.FlashChip.copy_pages` loop on a reference
chip or on one with a retired block.  Each family here — hybrid with
page-mapped logs, hybrid with in-order logs, FAST and block-map — runs
against its ``oracle_device`` twin until it wears out, with a retired
block away from its merges, and with the per-page chip operations
removed to show its merges really take the block copy.
"""

from __future__ import annotations

import pickle
from dataclasses import astuple

import numpy as np
import pytest

from repro.errors import BadBlockError, EnduranceError, ProgramError
from repro.flashsim.chip import ERASED, FlashChip
from repro.flashsim.ftl.base import FILLER_TOKEN
from repro.flashsim.timing import CostAccumulator

from ..conftest import SMALL_GEOMETRY, make_device, oracle_device

FAMILIES = {
    "hybrid": {"ftl_kind": "hybrid"},
    "hybrid-in-order": {"ftl_kind": "hybrid", "page_mapped_logs": False},
    "fast": {"ftl_kind": "fast"},
    "blockmap": {"ftl_kind": "blockmap"},
}


def _twins(family: str, **kwargs):
    """A plain device and its ``NoFaults`` oracle twin."""
    spec = {**FAMILIES[family], **kwargs}
    return make_device(**spec), oracle_device(spec)


def _observe(device) -> tuple:
    return (
        device.fingerprint(),
        astuple(device.chip.stats),
        device.ftl.metrics(),
        pickle.dumps(device.ftl.snapshot()),
    )


def _writes(device, count: int, first_lblock: int = 0, seed: int = 5):
    """Random one- to four-page writes from ``first_lblock`` on."""
    rng = np.random.default_rng(seed)
    geometry = device.geometry
    first = first_lblock * geometry.pages_per_block
    lpages = rng.integers(first, geometry.logical_pages - 4, count)
    sizes = rng.integers(1, 5, count)
    page = geometry.page_size
    return [(lpage * page, size * page) for lpage, size in zip(lpages.tolist(), sizes.tolist())]


def _count_loops(chip) -> list:
    """Record each call of ``chip``'s per-page reference copy loop."""
    calls: list = []
    loop = chip.copy_pages
    chip.copy_pages = lambda *args: calls.append(args) or loop(*args)
    return calls


def _write_until_worn_out(device, writes) -> int:
    """Index of the write that raised :class:`EnduranceError`."""
    for index, (lba, size) in enumerate(writes):
        try:
            device.write(lba, size)
        except EnduranceError:
            return index
    raise AssertionError("the device never wore out")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_wear_out_raises_at_the_oracles_io(family):
    """With three erase cycles per block, random writes wear a block out
    mid-merge: both twins raise at the same IO and stop in the same
    state — fingerprint, chip and FTL counters, FTL tables.  Until the
    raise no block is retired, so the plain twin never runs the loop."""
    fast, oracle = _twins(family, endurance=3)
    loops = _count_loops(fast.chip)
    writes = _writes(fast, 4000)
    raised_at = _write_until_worn_out(fast, writes)
    assert not loops
    assert _write_until_worn_out(oracle, writes) == raised_at
    assert fast.chip.good_blocks() == fast.geometry.physical_blocks - 1
    assert _observe(fast) == _observe(oracle)
    assert fast.chip.stats.page_programs > fast.chip.stats.page_reads > 0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_retired_block_sends_copies_to_the_reference_loop(family):
    """Logical block 0 is written once and its data block retired; the
    random writes after it never touch that block.  The plain chip's
    block copies then run the per-page loop, and every result equals
    the oracle's."""
    fast, oracle = _twins(family)
    for device in (fast, oracle):
        device.write(0, device.geometry.block_size)
        device.chip.mark_bad(int(device.ftl._data_map[0]))
    loops = _count_loops(fast.chip)
    writes = _writes(fast, 300, first_lblock=1)
    for device in (fast, oracle):
        for lba, size in writes:
            device.write(lba, size)
        device.ftl.quiesce()
        device.check_invariants()
    assert loops
    assert _observe(fast) == _observe(oracle)


def _forbid_per_page_ops(chip, monkeypatch) -> None:
    def forbidden(*args):
        raise AssertionError("a block copy took a per-page chip operation")

    for name in ("read", "program", "copy_pages"):
        monkeypatch.setattr(chip, name, forbidden)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_merges_on_a_plain_chip_take_the_block_copy(family, monkeypatch):
    """After random writes, resolving every log and replacement (full
    and partial merges, FAST ring reclaims, block-map tail copies)
    calls neither the per-page ``program`` nor ``read`` nor the
    reference loop on a plain chip, and ends where the oracle does."""
    fast, oracle = _twins(family)
    for device in (fast, oracle):
        for lba, size in _writes(device, 120):
            device.write(lba, size)
    programs = fast.chip.stats.page_programs
    _forbid_per_page_ops(fast.chip, monkeypatch)
    for device in (fast, oracle):
        device.ftl.quiesce()
    assert fast.chip.stats.page_programs > programs
    assert _observe(fast) == _observe(oracle)


def test_a_full_merge_takes_one_block_copy(monkeypatch):
    """A page-mapped hybrid log written out of order over a full data
    block merges with one copy: the old block's pages overlaid by the
    log's, no per-page program."""
    device = make_device()
    ftl = device.ftl
    ppb = device.geometry.pages_per_block
    cost = CostAccumulator()
    for offset in range(ppb):
        ftl.write_page(offset, offset + 1, cost)
    for offset in (5, 1, 3):
        ftl.write_page(offset, 50 + offset, cost)
    log = ftl._open_rnd.get(0) or ftl._open_seq.get(0)
    ftl._pop_open(0)
    _forbid_per_page_ops(device.chip, monkeypatch)
    merge = CostAccumulator()
    ftl._merge(log, merge)
    assert ftl.merge_stats["full"] == 1
    assert (merge.copy_reads, merge.copy_programs, merge.block_erases) == (ppb, ppb, 2)
    monkeypatch.undo()
    tokens = [ftl.read_token_quiet(offset) for offset in range(ppb)]
    assert tokens == [1, 51, 3, 53, 5, 55, 7, 8]


class _FailNthProgram:
    def __init__(self, n: int) -> None:
        self.n = n
        self.seen = 0

    def program_fails(self, block: int, page_offset: int) -> bool:
        self.seen += 1
        return self.seen == self.n

    def erase_fails(self, block: int) -> bool:
        return False


def _copy_source_chip() -> FlashChip:
    """Block 2 programmed up to page 6 (the base), block 3 with three
    log pages."""
    chip = FlashChip(SMALL_GEOMETRY)
    chip.program_run(2, 0, np.arange(1, 7))
    chip.program_run(3, 0, np.array([51, 52, 53]))
    return chip


def _chip_state(chip: FlashChip) -> tuple:
    return (
        chip._tokens.tobytes(),
        chip._write_point.tobytes(),
        chip._bad.tobytes(),
        astuple(chip.stats),
    )


@pytest.mark.parametrize("fail_at", (0, 1, 4, 7, 8))
def test_an_injected_program_failure_stops_the_copy_where_a_hand_loop_does(fail_at):
    """A block-range copy (base pages 0-5, log pages at offsets 1, 4 and
    7, filler at 6) on a chip whose ``fail_at``-th program fails stops
    at the page, with the tokens, write points and counters, of a
    hand-written read-then-program loop; with no failure (0) it ends
    where the loop ends and reports the loop's reads."""
    ppb = SMALL_GEOMETRY.pages_per_block
    overlay = {1: 3 * ppb + 2, 4: 3 * ppb, 7: 3 * ppb + 1}
    states = []
    for by_hand in (False, True):
        chip = _copy_source_chip()
        chip.fault_injector = _FailNthProgram(fail_at)
        reads = None
        try:
            if by_hand:
                reads = 0
                for offset in range(ppb):
                    source = overlay.get(offset, 2 * ppb + offset if offset < 6 else -1)
                    token = ERASED
                    if source >= 0:
                        token = chip.read(*divmod(source, ppb))
                        reads += 1
                    chip.program(5, offset, FILLER_TOKEN if token == ERASED else token)
            else:
                reads = chip.copy_range(
                    5, 0, ppb, 2, np.array(sorted(overlay)),
                    np.array([overlay[k] for k in sorted(overlay)]), FILLER_TOKEN,
                )
            raised = None
        except ProgramError:
            raised = ProgramError
        states.append((raised, reads if raised is None else None, _chip_state(chip)))
    assert states[0] == states[1]
    assert states[0][0] is (ProgramError if fail_at else None)
    if not fail_at:
        assert states[0][1] == 7
        plain = _copy_source_chip()
        plain.copy_range(
            5, 0, ppb, 2, np.array([1, 4, 7]), np.array([3 * ppb + 2, 3 * ppb, 3 * ppb + 1]),
            FILLER_TOKEN,
        )
        assert _chip_state(plain) == states[0][2]


def test_restore_brings_back_the_retired_block_count():
    """The chip counts its retired blocks instead of scanning the mask;
    a restore must recount them.  A copy from a block retired in the
    restored snapshot raises where the loop does, and restoring a clean
    snapshot puts copies back on the fast path."""
    ppb = SMALL_GEOMETRY.pages_per_block
    clean = _copy_source_chip().snapshot()
    worn = _copy_source_chip()
    worn.mark_bad(2)
    retired = worn.snapshot()
    chip = _copy_source_chip()
    loops = _count_loops(chip)
    chip.restore(retired)
    assert chip.good_blocks() == SMALL_GEOMETRY.physical_blocks - 1
    with pytest.raises(BadBlockError):
        chip.copy_range(5, 0, ppb, 2, np.array([1]), np.array([3 * ppb]), FILLER_TOKEN)
    assert len(loops) == 1
    assert chip.stats.page_reads == 0
    chip.restore(clean)
    assert chip.good_blocks() == SMALL_GEOMETRY.physical_blocks
    assert chip.copy_range(5, 0, ppb, 2, np.array([1]), np.array([3 * ppb]), FILLER_TOKEN) == 6
    assert len(loops) == 1
