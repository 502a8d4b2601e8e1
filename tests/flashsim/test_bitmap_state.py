"""Bitmap FTL state: dense maps must mirror the reference structures.

All four FTL families keep packed boolean bitmaps next to their
authoritative structures — ``_free_map`` mirroring the free-block
deque everywhere, plus the page-map FTL's ``_valid_map`` mirroring
``_p2l >= 0``.  The bitmaps are *derived* state: never snapshotted,
rebuilt on restore, and required to agree with the reference
representation after any sequence of IOs.  These property-style tests
drive a mixed workload and check the mirrors directly (the same
conditions ``check_invariants`` enforces, asserted here from first
principles), then pin the snapshot protocol: a restore must rebuild
exactly the incrementally-maintained bitmaps and reproduce the device
fingerprint.  Deliberate corruptions of the free pool and the block
roles must make ``check_invariants`` raise on every family.

:mod:`repro.flashsim.bitmap` itself (PackedBits, the packed form used
by chip snapshots) is covered at the bottom.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FTLError
from repro.flashsim.bitmap import PackedBits, mask_from_indices, pack_bits
from repro.flashsim.ftl.base import BlockMappedFTL

from ..conftest import SMALL_GEOMETRY, make_device

FTL_KINDS = ("pagemap", "hybrid", "blockmap", "fast")


def _drive(device, seed: int = 29, ios: int = 300):
    """A write-heavy mix with reads interleaved: enough churn to open
    logs/replacements, trigger merges and (on pagemap) GC."""
    rng = np.random.default_rng(seed)
    geometry = device.geometry
    page = geometry.page_size
    block = page * geometry.pages_per_block
    cap = geometry.logical_bytes
    now = device.busy_until
    for i in range(ios):
        choice = int(rng.integers(0, 4))
        if choice == 0:  # sequential block write
            lba = (i * block) % (cap - block)
            now = device.write(lba, block, now).completed_at
        elif choice == 1:  # random page write
            lba = int(rng.integers(0, cap // page)) * page
            now = device.write(lba, page, now).completed_at
        elif choice == 2:  # misaligned sub-page write (RMW)
            lba = int(rng.integers(0, cap // page - 1)) * page + 512
            now = device.write(lba, 1024, now).completed_at
        else:  # random read
            lba = int(rng.integers(0, cap // page)) * page
            now = device.read(lba, page, now).completed_at
    device.drain()
    return now


def _free_reference(ftl) -> np.ndarray:
    """The free bitmap recomputed from the authoritative deque."""
    return mask_from_indices(ftl._free, ftl.geometry.physical_blocks)


@pytest.mark.parametrize("ftl_kind", FTL_KINDS)
def test_free_bitmap_mirrors_free_queue(ftl_kind):
    device = make_device(ftl_kind=ftl_kind)
    _drive(device)
    ftl = device.ftl
    assert np.array_equal(ftl._free_map, _free_reference(ftl))
    # and the pool actually moved: some blocks left the free pool
    assert not ftl._free_map.all()
    device.check_invariants()


def test_pagemap_valid_bitmap_mirrors_inverse_map():
    device = make_device(ftl_kind="pagemap")
    _drive(device)
    ftl = device.ftl
    assert np.array_equal(ftl._valid_map, ftl._p2l >= 0)
    # per-block valid counts are the bitmap's block-wise sums
    ppb = device.geometry.pages_per_block
    counts = ftl._valid_map.reshape(-1, ppb).sum(axis=1)
    assert np.array_equal(counts, ftl._valid)
    device.check_invariants()


def test_pagemap_gc_maintains_bitmaps():
    """Garbage collection relocates and erases through the bitmaps;
    the mirrors must survive many collections."""
    device = make_device(ftl_kind="pagemap")
    _drive(device, seed=31, ios=600)
    ftl = device.ftl
    assert ftl.gc_collections > 0
    assert np.array_equal(ftl._free_map, _free_reference(ftl))
    assert np.array_equal(ftl._valid_map, ftl._p2l >= 0)
    device.check_invariants()


@pytest.mark.parametrize("ftl_kind", FTL_KINDS)
def test_restore_rebuilds_bitmaps(ftl_kind):
    """Bitmaps are derived state: a snapshot/restore round-trip must
    rebuild exactly the incrementally-maintained arrays and reproduce
    the device fingerprint."""
    device = make_device(ftl_kind=ftl_kind)
    _drive(device, seed=37)
    snap = device.snapshot()
    fingerprint = device.fingerprint()
    live_free = device.ftl._free_map.copy()
    live_valid = (
        device.ftl._valid_map.copy() if ftl_kind == "pagemap" else None
    )
    _drive(device, seed=41, ios=100)  # diverge past the snapshot
    device.restore(snap)
    assert device.fingerprint() == fingerprint
    assert np.array_equal(device.ftl._free_map, live_free)
    if live_valid is not None:
        assert np.array_equal(device.ftl._valid_map, live_valid)
    device.check_invariants()


@pytest.mark.parametrize("ftl_kind", FTL_KINDS)
def test_restored_device_continues_identically(ftl_kind):
    """Driving the same IOs after a restore lands on the same state as
    never having snapshotted — derived bitmaps included."""
    device = make_device(ftl_kind=ftl_kind)
    _drive(device, seed=43, ios=150)
    snap = device.snapshot()
    _drive(device, seed=47, ios=150)
    end_fingerprint = device.fingerprint()
    device.restore(snap)
    _drive(device, seed=47, ios=150)
    assert device.fingerprint() == end_fingerprint
    assert np.array_equal(device.ftl._free_map, _free_reference(device.ftl))
    device.check_invariants()


def _desync_free_bit(ftl) -> None:
    ftl._free_map[int(np.flatnonzero(~ftl._free_map)[0])] = True


def _program_a_free_block(ftl) -> None:
    ftl.chip.program(ftl._free[0], 0, 12345)


def _give_a_block_two_roles(ftl) -> None:
    if isinstance(ftl, BlockMappedFTL):
        ftl._data_map[0] = ftl._free[0]  # a free block mapped as data
    else:
        ftl._gc_active = ftl._host_active


@pytest.mark.parametrize("ftl_kind", FTL_KINDS)
@pytest.mark.parametrize(
    "corrupt, message",
    (
        (_desync_free_bit, "free queue out of sync with the free bitmap"),
        (_program_a_free_block, "is not erased"),
        (_give_a_block_two_roles, "has two roles"),
    ),
)
def test_invariant_checks_catch_corruption(ftl_kind, corrupt, message):
    """The shared free-pool check and each family's role check are not
    vacuous: one corruption of the pool, the chip or the block roles
    makes ``check_invariants`` raise, on every family."""
    device = make_device(ftl_kind=ftl_kind)
    _drive(device, ios=100)
    device.check_invariants()
    corrupt(device.ftl)
    with pytest.raises(FTLError, match=message):
        device.check_invariants()


def test_chip_snapshot_packs_bad_blocks():
    """The chip snapshot stores the bad-block mask packed (one bit per
    block) and restores it exactly."""
    device = make_device(ftl_kind="pagemap")
    chip = device.chip
    chip.mark_bad(SMALL_GEOMETRY.physical_blocks - 1)
    state = chip.snapshot()
    assert isinstance(state["bad"], PackedBits)
    assert len(state["bad"].data) == -(-SMALL_GEOMETRY.physical_blocks // 8)
    before = chip._bad.copy()
    chip.mark_bad(SMALL_GEOMETRY.physical_blocks - 2)
    chip.restore(state)
    assert np.array_equal(chip._bad, before)


# ----------------------------------------------------------------------
# the bitmap primitives
# ----------------------------------------------------------------------


@pytest.mark.parametrize("size", (0, 1, 7, 8, 9, 64, 1000))
def test_pack_bits_round_trip(size):
    rng = np.random.default_rng(size)
    mask = rng.integers(0, 2, size=size).astype(bool)
    packed = pack_bits(mask)
    assert packed.size == size
    assert len(packed.data) == -(-size // 8)
    assert np.array_equal(packed.unpack(), mask)


def test_pack_bits_is_compact_and_hashable():
    mask = np.ones(1024, dtype=bool)
    packed = pack_bits(mask)
    assert len(packed.data) == 128  # 8x smaller than bool bytes
    # frozen dataclass over bytes: usable as a cache/fingerprint key
    assert hash(packed) == hash(pack_bits(mask))


def test_mask_from_indices():
    mask = mask_from_indices([5, 1, 3], 8)
    assert mask.dtype == np.bool_
    assert np.flatnonzero(mask).tolist() == [1, 3, 5]
    assert not mask_from_indices([], 8).any()
    assert not mask_from_indices(np.empty(0, dtype=np.int64), 8).any()
