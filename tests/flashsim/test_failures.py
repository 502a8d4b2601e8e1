"""Failure injection: chip faults propagate sanely through the stack."""

import numpy as np
import pytest

from repro.errors import EnduranceError, ProgramError
from repro.flashsim.chip import ERASED, FlashChip
from repro.flashsim.ftl.hybrid import HybridConfig, HybridLogFTL
from repro.flashsim.geometry import Geometry
from repro.flashsim.profiles import build_device
from repro.flashsim.timing import CostAccumulator
from repro.units import KIB, MIB


class CountedFaults:
    """Fail the nth program and/or every erase of a chosen block."""

    def __init__(self, fail_program_at: int = 0, bad_erase_block: int = -1) -> None:
        self.programs = 0
        self.fail_program_at = fail_program_at
        self.bad_erase_block = bad_erase_block

    def program_fails(self, block: int, page_offset: int) -> bool:
        self.programs += 1
        return self.programs == self.fail_program_at

    def erase_fails(self, block: int) -> bool:
        return block == self.bad_erase_block


def test_program_failure_surfaces_from_ftl(geometry):
    chip = FlashChip(geometry, fault_injector=CountedFaults(fail_program_at=3))
    ftl = HybridLogFTL(geometry, chip, HybridConfig(seq_log_blocks=2, rnd_log_blocks=4))
    cost = CostAccumulator()
    ftl.write_page(0, 1, cost)
    ftl.write_page(1, 2, cost)
    with pytest.raises(ProgramError):
        ftl.write_page(2, 3, cost)
    assert chip.stats.program_failures == 1


def test_device_with_fault_injector_builds():
    device = build_device(
        "mtron", logical_bytes=8 * MIB, fault_injector=CountedFaults()
    )
    done = device.write(0, 32 * KIB)
    assert done.response_usec > 0


def _flash_tokens(device, lpages):
    """Tokens the flash holds for ``lpages`` (ERASED where unmapped),
    read straight from the chip so a block retired by the failure does
    not get in the way."""
    ppages = device.ftl._l2p[lpages]
    return np.where(ppages >= 0, device.chip._tokens[np.maximum(ppages, 0)], ERASED)


@pytest.mark.parametrize(
    ("offset", "size"),
    [(0, 64 * KIB), (512, 64 * KIB)],
    ids=["aligned", "rmw-edges"],
)
def test_torn_pagemap_write_keeps_the_ftl_consistent(offset, size):
    """A program failure part-way through a multi-page page-map rewrite
    raises, and leaves the FTL's maps consistent and every page the
    write did not touch readable with its last written content."""
    faults = CountedFaults()
    device = build_device(
        "ideal_pagemap", logical_bytes=8 * MIB, fault_injector=faults
    )
    page = device.geometry.page_size
    device.write(0, 256 * KIB)
    device.write(1 * MIB, 256 * KIB)
    faults.fail_program_at = faults.programs + 5
    with pytest.raises(ProgramError):
        device.write(offset, size)
    assert device.chip.stats.program_failures == 1
    device.check_invariants()
    touched = np.arange(offset // page, -(-(offset + size) // page))
    untouched = np.setdiff1d(np.arange(device.geometry.logical_pages), touched)
    assert np.array_equal(
        _flash_tokens(device, untouched), device.controller._shadow[untouched]
    )


def test_endurance_exhaustion_is_detectable():
    geometry = Geometry(
        page_size=2 * KIB, pages_per_block=4, logical_bytes=256 * KIB,
        physical_blocks=32 + 10,
    )
    chip = FlashChip(geometry, endurance=4)
    ftl = HybridLogFTL(geometry, chip, HybridConfig(seq_log_blocks=2, rnd_log_blocks=4))
    cost = CostAccumulator()
    with pytest.raises(EnduranceError):
        # hammer a single logical block until some physical block wears out
        for step in range(10_000):
            for offset in range(4):
                ftl.write_page(offset, step * 4 + offset + 1, cost)


def test_wear_levelling_extends_life_under_hot_spot():
    """With static wear levelling the same hot-spot workload survives
    far longer than the no-WL endurance bound would allow."""
    from repro.flashsim.ftl.pagemap import PageMapConfig, PageMapFTL

    geometry = Geometry(
        page_size=2 * KIB, pages_per_block=4, logical_bytes=256 * KIB,
        physical_blocks=32 + 10,
    )
    chip = FlashChip(geometry, endurance=60)
    ftl = PageMapFTL(
        geometry, chip, PageMapConfig(gc_low_blocks=2, wear_threshold=8)
    )
    cost = CostAccumulator()
    # fill everything once so there is cold data to relocate
    for lpage in range(geometry.logical_pages):
        ftl.write_page(lpage, lpage + 1, cost)
    # hot-spot: rewrite one page many times; without WL the ~10 spare
    # blocks would absorb all erases and wear out at ~60 x 12 writes
    for step in range(4_000):
        ftl.write_page(0, 1000 + step, cost)
    assert ftl.wear_relocations > 0
    counts = chip.erase_counts()
    assert counts.max() < 60  # nobody wore out
    ftl.check_invariants()
