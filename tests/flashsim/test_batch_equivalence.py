"""Scalar/batch equivalence: the array run paths must be invisible.

The controller has one write path and one long-read call: it mints a
span's tokens as an array and hands them to ``BaseFTL.write_run`` (or
the cache's run write), and reads long uncached spans through
``BaseFTL.read_pages``.  Below it, the oracle differs: the FTLs' run
paths and ``FlashChip.read_many``/``program_run`` are a pure
performance optimisation over their scalar loops, which they take on a
:attr:`~repro.flashsim.chip.FlashChip.reference` chip.  Every device
profile must produce bit-identical state (``fingerprint``), identical
physical work (``CostAccumulator`` totals) and identical observability
counters (``metrics``) either way.

Two devices are driven through the same IO mix — sequential, random,
aligned, misaligned, reads and writes interleaved — one the
``NoFaults`` oracle twin (:func:`~tests.conftest.oracle_device`, the
scalar reference), one with the defaults.  Dedicated cases cover the
cache-enabled and mapping-unit-expanded controllers, whose
read-modify-write edges the controller mints page by page.  The
controller's own rule is pinned against a per-page model in
``test_controller_model.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flashsim.profiles import build_device, profile_names
from repro.units import KIB, MIB

from ..conftest import SMALL_GEOMETRY, make_device, oracle_device

SECTOR = 512

_COST_FIELDS = (
    "page_reads",
    "page_programs",
    "copy_reads",
    "copy_programs",
    "block_erases",
    "bytes_transferred",
    "map_misses",
)


def _io_mix(geometry, seed: int = 7):
    """A deterministic interleaving of every access shape the controller
    distinguishes: sequential/random, page-aligned/sector-misaligned,
    whole-page and sub-page sizes, reads mixed with writes."""
    rng = np.random.default_rng(seed)
    page = geometry.page_size
    cap = geometry.logical_bytes
    block = geometry.page_size * geometry.pages_per_block
    ios: list[tuple[str, int, int]] = []

    def clamp(lba: int, size: int) -> tuple[int, int]:
        lba = max(0, min(lba, cap - SECTOR))
        size = max(SECTOR, min(size, cap - lba))
        return lba, size

    # sequential aligned writes then reads (multi-page runs)
    for i in range(12):
        ios.append(("w", *clamp((i * 2 * page) % cap, 2 * page)))
    for i in range(12):
        ios.append(("r", *clamp((i * 2 * page) % cap, 2 * page)))
    # random aligned whole-block and whole-page IOs
    for _ in range(16):
        lba = int(rng.integers(0, cap // page)) * page
        ios.append(("w", *clamp(lba, page)))
        ios.append(("r", *clamp(lba, page)))
    for _ in range(4):
        lba = int(rng.integers(0, max(1, cap // block))) * block
        ios.append(("w", *clamp(lba, block)))
    # misaligned sector-granular IOs (RMW edges on both sides)
    for _ in range(16):
        lba = int(rng.integers(0, cap // SECTOR)) * SECTOR
        size = int(rng.integers(1, 2 * page // SECTOR + 1)) * SECTOR
        mode = "w" if rng.integers(0, 2) else "r"
        ios.append((mode, *clamp(lba, size)))
    # sub-page writes inside a single page (no fully covered pages)
    for _ in range(8):
        lba = int(rng.integers(0, cap // page)) * page + SECTOR
        ios.append(("w", *clamp(lba, SECTOR)))
    # a long sequential sweep to push the page-map FTL into GC
    for i in range(3 * cap // block):
        ios.append(("w", *clamp((i * block) % cap, block)))
    # long sequential reads: spans past the controller's batch-read
    # threshold, so the array read path (not just writes) is exercised
    for i in range(4):
        ios.append(("r", *clamp(i * 4 * block, 4 * block)))
    return ios


def _run_mix(device, ios) -> list[tuple[int, ...]]:
    costs = []
    for mode, lba, size in ios:
        done = device.read(lba, size) if mode == "r" else device.write(lba, size)
        costs.append(tuple(getattr(done.cost, f) for f in _COST_FIELDS))
    return costs


def _assert_equivalent(scalar, batch, ios) -> None:
    scalar_costs = _run_mix(scalar, ios)
    batch_costs = _run_mix(batch, ios)
    for i, (s, b) in enumerate(zip(scalar_costs, batch_costs)):
        assert s == b, (
            f"cost divergence at IO {i} ({ios[i]}): scalar={s} batch={b}"
        )
    assert scalar.fingerprint() == batch.fingerprint()
    assert scalar.metrics() == batch.metrics()
    batch.check_invariants()


@pytest.mark.parametrize("profile", profile_names())
def test_profiles_scalar_batch_identical(profile):
    """Every built-in profile: same fingerprint, costs and metrics."""
    scalar = oracle_device(profile)
    batch = build_device(profile, logical_bytes=4 * MIB)
    _assert_equivalent(scalar, batch, _io_mix(scalar.geometry))


@pytest.mark.parametrize("ftl_kind", ["pagemap", "hybrid", "blockmap", "fast"])
def test_small_devices_scalar_batch_identical(ftl_kind):
    """Small bespoke devices exercise GC/merge edges within few IOs."""
    scalar = oracle_device({"ftl_kind": ftl_kind})
    batch = make_device(ftl_kind=ftl_kind)
    _assert_equivalent(scalar, batch, _io_mix(SMALL_GEOMETRY, seed=11))


@pytest.mark.parametrize("ftl_kind", ["pagemap", "hybrid"])
def test_cache_enabled_scalar_batch_identical(ftl_kind):
    """Through a write-back cache, every write takes the cache's run
    write and destages reach the FTL as sorted arrays on both twins;
    below the FTL the oracle's runs go page by page.  Counters must
    agree."""
    scalar = oracle_device({"ftl_kind": ftl_kind, "cache_bytes": 64 * KIB})
    batch = make_device(ftl_kind=ftl_kind, cache_bytes=64 * KIB)
    _assert_equivalent(scalar, batch, _io_mix(SMALL_GEOMETRY, seed=13))


@pytest.mark.parametrize("ftl_kind", ["pagemap", "blockmap"])
def test_mapping_unit_scalar_batch_identical(ftl_kind):
    """Mapping-unit expansion creates RMW padding on both edges."""
    unit = 2 * SMALL_GEOMETRY.page_size
    scalar = oracle_device({"ftl_kind": ftl_kind, "mapping_unit": unit})
    batch = make_device(ftl_kind=ftl_kind, mapping_unit=unit)
    _assert_equivalent(scalar, batch, _io_mix(SMALL_GEOMETRY, seed=17))


def test_background_gc_scalar_batch_identical():
    """Background reclamation interleaves with the batch write path."""
    scalar = oracle_device({"ftl_kind": "pagemap", "bg": True})
    batch = make_device(ftl_kind="pagemap", bg=True)
    _assert_equivalent(scalar, batch, _io_mix(SMALL_GEOMETRY, seed=19))


def test_snapshot_restore_preserves_batch_state():
    """Restoring a snapshot rebuilds derived batch state (GC buckets)."""
    device = make_device(ftl_kind="pagemap")
    ios = _io_mix(SMALL_GEOMETRY, seed=23)
    half = len(ios) // 2
    _run_mix(device, ios[:half])
    snap = device.snapshot()
    fp_mid = device.fingerprint()
    _run_mix(device, ios[half:])
    fp_end = device.fingerprint()
    device.restore(snap)
    assert device.fingerprint() == fp_mid
    _run_mix(device, ios[half:])
    assert device.fingerprint() == fp_end
    device.check_invariants()
