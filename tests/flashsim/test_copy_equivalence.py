"""Block-range copies and log-append runs must be invisible.

Merges and block copies in the hybrid, block-map and FAST FTLs move
whole page ranges with :meth:`FlashChip.copy_pages`, and hybrid host
writes land in their log as program runs.  Installing a fault injector
— here one that never fails (:class:`~repro.flashsim.chip.NoFaults`) —
sends every one of those paths through the scalar per-page reference
loop.  Random programs (mixed reads and writes, unaligned sizes, runs
crossing block boundaries, pauses that let background reclamation run)
must leave both twins bit-identical: device fingerprint, FTL state,
chip and FTL counters and every trace column.

The second half pins ``copy_pages``'s edges: a zero-length copy, an
ERASED source, a retired source block and an injected program failure
part-way through a merge.
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
from repro.flashsim.chip import ERASED, FlashChip, NoFaults
from repro.flashsim.controller import Controller, ControllerConfig
from repro.flashsim.device import FlashDevice
from repro.flashsim.ftl.base import FILLER_TOKEN
from repro.flashsim.ftl.blockmap import BlockMapConfig, BlockMapFTL
from repro.flashsim.ftl.fast import FastConfig, FastFTL
from repro.flashsim.ftl.hybrid import HybridConfig, HybridLogFTL
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
}


def _build(family: str, oracle: bool, mapping_unit: int = 0) -> FlashDevice:
    chip = FlashChip(GEOMETRY, fault_injector=NoFaults() if oracle else None)
    ftl = FAMILIES[family](chip)
    controller = Controller(
        GEOMETRY, ftl, ControllerConfig(mapping_unit=mapping_unit)
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


def _run_both(family: str, ios, mapping_unit: int = 0) -> tuple[dict, dict]:
    program = _program(ios)
    observed = []
    for oracle in (False, True):
        device = _build(family, oracle, mapping_unit)
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
    assert chip.read_run(5, 0, 4).tolist() == [3, FILLER_TOKEN, FILLER_TOKEN, 102]
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


def _merge_with_failure(copy: bool, fail_at: int):
    """Fill a hybrid log out of order, then fail a program mid-merge."""
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
    if not copy:
        # route the merge through the reference loop instead of copy_pages
        ftl._copy_pages = lambda sources, target, start, sub: _reference_loop(
            ftl, sources, target, start, sub
        )
    with pytest.raises(ProgramError):
        ftl._merge(log, cost)
    return _chip_state(chip), ftl.metrics(), (cost.copy_reads, cost.copy_programs)


def _reference_loop(ftl, sources, target, start, sub):
    chip = ftl.chip
    for i, source in enumerate(np.asarray(sources).tolist()):
        if source >= 0:
            token = chip.read(*divmod(source, PPB))
            sub.copy_reads += 1
            ftl.merge_copy_reads += 1
        else:
            token = ERASED
        chip.program(target, start + i, token if token != ERASED else FILLER_TOKEN)
        sub.copy_programs += 1
        ftl.merge_copy_programs += 1


@pytest.mark.parametrize("fail_at", (1, 4, PPB))
def test_injected_program_failure_mid_merge_matches_the_scalar_loop(fail_at):
    """Tokens, write points, chip counters and the FTL's copy counters
    after a failed full merge equal the per-page loop's."""
    assert _merge_with_failure(True, fail_at) == _merge_with_failure(False, fail_at)
