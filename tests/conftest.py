"""Shared fixtures: small, fast devices for unit and integration tests.

Device-dependent tests run against shrunken capacities (8-32 MiB) so
whole-device state enforcement stays in the millisecond range; the
behavioural resources (log pools, caches, spare blocks) keep their
profile sizes, so all pattern effects remain visible.
"""

from __future__ import annotations

import pytest

from repro.core import enforce_random_state, rest_device
from repro.flashsim import FlashChip, Geometry, build_device
from repro.flashsim.chip import SLC_ENDURANCE, FaultInjector, NoFaults
from repro.flashsim.controller import Controller, ControllerConfig
from repro.flashsim.device import FlashDevice
from repro.flashsim.ftl.blockmap import BlockMapConfig, BlockMapFTL
from repro.flashsim.ftl.fast import FastConfig, FastFTL
from repro.flashsim.ftl.hybrid import HybridConfig, HybridLogFTL
from repro.flashsim.ftl.pagemap import PageMapConfig, PageMapFTL
from repro.flashsim.profiles import DeviceProfile, get_profile
from repro.flashsim.timing import TimingSpec
from repro.units import KIB, MIB, SEC

#: a small geometry used across FTL unit tests: 2 KiB pages, 8 pages per
#: block, 64 logical blocks (1 MiB logical) with generous spare
SMALL_GEOMETRY = Geometry(
    page_size=2 * KIB,
    pages_per_block=8,
    logical_bytes=1 * MIB,
    physical_blocks=64 + 24,
)


@pytest.fixture
def geometry() -> Geometry:
    return SMALL_GEOMETRY


@pytest.fixture
def chip(geometry: Geometry) -> FlashChip:
    return FlashChip(geometry)


@pytest.fixture
def hybrid_ftl(geometry: Geometry, chip: FlashChip) -> HybridLogFTL:
    return HybridLogFTL(
        geometry, chip, HybridConfig(seq_log_blocks=2, rnd_log_blocks=4)
    )


@pytest.fixture
def blockmap_ftl(geometry: Geometry, chip: FlashChip) -> BlockMapFTL:
    return BlockMapFTL(geometry, chip, BlockMapConfig(replacement_slots=2))


@pytest.fixture
def pagemap_ftl(geometry: Geometry, chip: FlashChip) -> PageMapFTL:
    return PageMapFTL(geometry, chip, PageMapConfig(gc_low_blocks=2))


def make_device(
    geometry: Geometry | None = None,
    ftl_kind: str = "hybrid",
    cache_bytes: int = 0,
    mapping_unit: int = 0,
    bg: bool = False,
    timing: TimingSpec | None = None,
    fault_injector: FaultInjector | None = None,
    endurance: int = SLC_ENDURANCE,
    page_mapped_logs: bool = True,
) -> FlashDevice:
    """Assemble a bespoke small device for unit tests.

    ``endurance`` (erase cycles per block) wears a device out early;
    ``page_mapped_logs=False`` gives a hybrid the in-order-only logs of
    a cheap controller.
    """
    geometry = geometry or SMALL_GEOMETRY
    chip = FlashChip(geometry, endurance=endurance, fault_injector=fault_injector)
    if ftl_kind == "hybrid":
        config = HybridConfig(
            seq_log_blocks=2,
            rnd_log_blocks=4,
            page_mapped_logs=page_mapped_logs,
            bg_enabled=bg,
            bg_target_blocks=8 if bg else 0,
        )
        ftl = HybridLogFTL(geometry, chip, config)
    elif ftl_kind == "blockmap":
        ftl = BlockMapFTL(geometry, chip, BlockMapConfig(replacement_slots=2))
    elif ftl_kind == "fast":
        ftl = FastFTL(geometry, chip, FastConfig(shared_log_blocks=4))
    else:
        ftl = PageMapFTL(
            geometry,
            chip,
            PageMapConfig(gc_low_blocks=2, bg_enabled=bg, bg_target_blocks=8 if bg else 0),
        )
    controller = Controller(
        geometry,
        ftl,
        ControllerConfig(cache_bytes=cache_bytes, mapping_unit=mapping_unit),
    )
    return FlashDevice(
        name=f"test-{ftl_kind}",
        geometry=geometry,
        timing=timing or TimingSpec(),
        chip=chip,
        ftl=ftl,
        controller=controller,
    )


def oracle_device(
    profile_or_kwargs: str | DeviceProfile | dict, logical_bytes: int = 4 * MIB
) -> FlashDevice:
    """The scalar reference twin of a test device.

    ``profile_or_kwargs`` names a built-in profile, is a
    :class:`~repro.flashsim.profiles.DeviceProfile` (both built at
    ``logical_bytes``), or holds :func:`make_device` keyword arguments.
    The twin carries a never-failing fault injector
    (:class:`~repro.flashsim.chip.NoFaults`), which sends every layer
    below the controller — FTL batch reads and runs, block copies,
    closed-form kernels — down its per-IO reference path without
    changing any result.
    """
    if isinstance(profile_or_kwargs, dict):
        return make_device(**profile_or_kwargs, fault_injector=NoFaults())
    if isinstance(profile_or_kwargs, str):
        profile_or_kwargs = get_profile(profile_or_kwargs)
    return profile_or_kwargs.build(logical_bytes, NoFaults())


@pytest.fixture
def device() -> FlashDevice:
    return make_device()


@pytest.fixture(scope="session")
def enforced_mtron() -> FlashDevice:
    """A state-enforced scaled Mtron (the paper's phase/pause exemplar).

    Session-scoped: tests using it must not rely on exact device state,
    only on behaviour that is stable under the random-state assumption.
    """
    dev = build_device("mtron", logical_bytes=32 * MIB)
    enforce_random_state(dev)
    rest_device(dev, 60 * SEC)
    return dev


@pytest.fixture(scope="session")
def enforced_dti() -> FlashDevice:
    """A state-enforced scaled Kingston DTI (block-mapped low-end)."""
    dev = build_device("kingston_dti", logical_bytes=16 * MIB)
    enforce_random_state(dev)
    rest_device(dev, 60 * SEC)
    return dev
