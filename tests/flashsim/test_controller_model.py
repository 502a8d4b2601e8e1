"""The controller's write path against a per-page model of it.

``Controller.write`` mints a span's tokens as one array — the partial
edges read-modify-written page by page, the fully covered middle as one
range — and hands them to the FTL (or the RAM cache) as one run.  The
model here restates the rule page by page: a fully covered page takes a
fresh token, a partial page keeps the token it reads, and a token is
minted only where the page reads ERASED.  The model feeds its
``(lpage, token)`` pairs through the FTL's ``write_page`` (the hybrid's
with the run's stream class settled once), or through per-page
``cache.write`` plus a destage, on the ``NoFaults`` oracle twin.  After
every IO both devices must agree on the cost counters; at the end, on
the shadow, the token counter, the fingerprint, ``metrics()``, the
cache's contents and LRU order, and on a read-back of every page.

A second group checks the read-your-writes check itself: a page
corrupted behind the controller's back fails a short (per-page) and a
long (``read_pages``) read with the same message on both twins.
"""

from __future__ import annotations

import pytest

from repro.errors import FTLError
from repro.flashsim.chip import ERASED
from repro.flashsim.controller import BATCH_READ_MIN_PAGES
from repro.flashsim.ftl.hybrid import HybridLogFTL
from repro.flashsim.timing import CostAccumulator
from repro.units import KIB

from ..conftest import SMALL_GEOMETRY, make_device, oracle_device

SECTOR = 512
PAGE = SMALL_GEOMETRY.page_size

_COST_FIELDS = (
    "page_reads",
    "page_programs",
    "copy_reads",
    "copy_programs",
    "block_erases",
    "bytes_transferred",
    "map_misses",
)

DEVICES = {
    "pagemap": {"ftl_kind": "pagemap"},
    "blockmap": {"ftl_kind": "blockmap"},
    "hybrid": {"ftl_kind": "hybrid"},
    "fast": {"ftl_kind": "fast"},
    "cached-hybrid": {"ftl_kind": "hybrid", "cache_bytes": 32 * KIB},
    "mapping-unit": {"ftl_kind": "hybrid", "mapping_unit": 4 * PAGE},
}

#: span lengths in pages: single pages, runs shorter and longer than a
#: block (8 pages in the small geometry) and whole blocks
SPANS = (1, 2, 3, 7, 8, 9, 16)


def _model_write(device, lba: int, size: int, cost: CostAccumulator) -> None:
    """``Controller.write`` restated page by page on ``device``."""
    controller, ftl = device.controller, device.ftl
    cache = controller.cache
    controller._check_extent(lba, size)
    unit = controller.mapping_unit
    start = lba // unit * unit
    stop = min(-(-(lba + size) // unit) * unit, device.geometry.logical_bytes)
    span = range(start // PAGE, -(-stop // PAGE))
    controller._charge_map_lookup(span[0], span[-1], cost)
    items = []
    for lpage in span:
        token = ERASED
        if not (lba <= lpage * PAGE and (lpage + 1) * PAGE <= lba + size):
            cached = cache.read(lpage) if cache is not None else None
            token = cached if cached is not None else ftl.read_page(lpage, cost)
        if token == ERASED:
            token = controller._next_token
            controller._next_token += 1
            controller._shadow[lpage] = token
        items.append((lpage, token))
    if cache is not None:
        for lpage, token in items:
            cache.write(lpage, token)
        cache.destage_if_needed(ftl, cost)
    else:
        hint = {}
        if isinstance(ftl, HybridLogFTL):
            hint["seq_hint"] = ftl._classify_run(span[0], span[-1])
        for lpage, token in items:
            ftl.write_page(lpage, token, cost, **hint)
    ftl.note_io_boundary(lba + size, cost)
    cost.bytes_transferred += size


def _shapes(pages: int, first: int) -> list[tuple[int, int]]:
    """Aligned, head-misaligned, tail-misaligned, both-misaligned and
    sub-page writes of ``pages`` pages from page ``first``."""
    lba = first * PAGE
    return [
        (lba, pages * PAGE),
        (lba + SECTOR, pages * PAGE - SECTOR),
        (lba, pages * PAGE - SECTOR),
        (lba + SECTOR, pages * PAGE),
        (lba + SECTOR, SECTOR),
    ]


def _write_mix() -> list[tuple[int, int]]:
    """Every shape and span, first on never-written pages, then again
    over the same pages (their edges now written), then twice shifted
    by a page so old edges fall mid-span and old middles on the edges.
    The four passes program enough pages to collect garbage on the
    page map and to merge on the block-mapped families."""
    fresh, first = [], 0
    for pages in SPANS:
        for shape in range(5):
            fresh.append(_shapes(pages, first)[shape])
            first += pages + 2
    shifted = [(lba + PAGE, size) for lba, size in fresh]
    assert first + 1 < SMALL_GEOMETRY.logical_pages
    return fresh + fresh + shifted + shifted


def _cache_state(device):
    cache = device.controller.cache
    if cache is None:
        return None
    state = cache.snapshot()
    return [(b, list(g.items())) for b, g in state["groups"].items()], state


@pytest.mark.parametrize("name", DEVICES)
def test_controller_writes_match_the_per_page_model(name):
    model = oracle_device(DEVICES[name])
    model.controller.write = lambda lba, size, cost: _model_write(model, lba, size, cost)
    device = make_device(**DEVICES[name])
    for lba, size in _write_mix():
        want, got = model.write(lba, size).cost, device.write(lba, size).cost
        for field in _COST_FIELDS:
            assert getattr(got, field) == getattr(want, field), (field, lba, size)
    assert (device.controller._shadow == model.controller._shadow).all()
    assert device.controller._next_token == model.controller._next_token
    assert _cache_state(device) == _cache_state(model)
    assert device.fingerprint() == model.fingerprint()
    assert device.metrics() == model.metrics()
    for lba in range(0, SMALL_GEOMETRY.logical_bytes, 16 * PAGE):
        assert device.read(lba, 16 * PAGE).cost.page_reads == (
            model.read(lba, 16 * PAGE).cost.page_reads
        )
    device.check_invariants()


def test_a_never_written_head_edge_is_minted_before_the_middle():
    device = make_device(ftl_kind="pagemap")
    device.write(SECTOR, 3 * PAGE - SECTOR)
    assert [device.controller.expected_token(p) for p in range(3)] == [1, 2, 3]


@pytest.mark.parametrize("ftl_kind", ["pagemap", "hybrid"])
@pytest.mark.parametrize("pages, bad", [(4, 2), (32, 5), (32, 20)])
def test_read_your_writes_names_the_first_bad_page(ftl_kind, pages, bad):
    """Two pages of a span corrupted behind the controller: the read
    raises on the first, with one message on the plain device and its
    ``NoFaults`` twin.  A short span stops reading at the bad page; a
    long span goes through ``read_pages`` on both twins and is read
    whole before the check raises."""
    messages, reads, first = [], [], 8
    for device in (make_device(ftl_kind=ftl_kind), oracle_device({"ftl_kind": ftl_kind})):
        device.write(first * PAGE, pages * PAGE)
        for lpage in (first + bad, first + bad + 1):
            device.ftl.write_page(lpage, 999_999 + lpage, CostAccumulator())
        before = device.chip.stats.page_reads
        with pytest.raises(FTLError, match="read-your-writes") as error:
            device.read(first * PAGE, pages * PAGE)
        messages.append(str(error.value))
        reads.append(device.chip.stats.page_reads - before)
    assert messages[0] == messages[1]
    assert f"logical page {first + bad}:" in messages[0]
    assert reads[0] == reads[1] == (pages if pages >= BATCH_READ_MIN_PAGES else bad + 1)
