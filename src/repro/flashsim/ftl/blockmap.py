"""Strict block-mapping FTL (USB flash drives, SD cards, IDE modules).

The cheapest controllers map logical blocks to physical blocks one to
one and service writes through a handful of *replacement blocks*:

* an **append** to the open replacement block is cheap (program only);
* a **forward gap** copies the skipped pages from the old block first;
* an **out-of-order** write (offset already passed) forces the current
  replacement to be finalised and a new one opened, copying everything
  before the write — nearly a full block copy *per IO*.  This is the
  mechanism behind Kingston DTI's constant ~256 ms random writes and its
  x40 in-place penalty (Table 3).

``sync_commit_boundary`` models controllers that cannot hold write state
across host commands: unless a write IO ends exactly on the boundary,
the replacement block is finalised immediately.  Small sequential writes
then pay a near-full block copy each (Figure 7's shape, where 4 KiB
sequential writes cost an order of magnitude more than 32 KiB ones).

``map_flush_every_blocks`` models the periodic rewrite of the on-flash
inverse-map segment (Section 2.2): every N finalised blocks the FTL
pays a bookkeeping burst.  This is the long-period oscillation visible
in Figure 4 (Kingston DTI sequential writes, period ~128 IOs).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import FTLError, OutOfSpaceError
from repro.flashsim.chip import ERASED, FlashChip
from repro.flashsim.ftl.base import FILLER_TOKEN, NO_PAGES, BlockMappedFTL
from repro.flashsim.geometry import Geometry
from repro.flashsim.timing import CostAccumulator


@dataclass(frozen=True)
class BlockMapConfig:
    """Tuning of a :class:`BlockMapFTL`.

    ``replacement_slots`` is the number of logical blocks that may have
    an open replacement at once — the device's partitioning limit.
    ``sync_commit_boundary`` (bytes, 0 = disabled) finalises the open
    replacement after any write IO not ending on the boundary.
    """

    replacement_slots: int = 4
    sync_commit_boundary: int = 0
    map_flush_every_blocks: int = 0
    map_flush_pages: int = 32

    def __post_init__(self) -> None:
        if self.replacement_slots < 1:
            raise FTLError("replacement_slots must be >= 1")
        if self.sync_commit_boundary < 0:
            raise FTLError("sync_commit_boundary must be >= 0")
        if self.map_flush_every_blocks < 0 or self.map_flush_pages < 0:
            raise FTLError("map flush parameters must be >= 0")


class _Replacement:
    """An open replacement block holding pages ``0..next_offset-1``."""

    __slots__ = ("lblock", "pblock", "next_offset")

    def __init__(self, lblock: int, pblock: int) -> None:
        self.lblock = lblock
        self.pblock = pblock
        self.next_offset = 0


class BlockMapFTL(BlockMappedFTL):
    """One-to-one block mapping with in-order replacement blocks."""

    batch_read_capable = True

    _STATE_ATTRS = (
        "_data_map",
        "_free",
        "_open",
        "finalize_count",
        "merge_copy_reads",
        "merge_copy_programs",
    )

    def __init__(
        self,
        geometry: Geometry,
        chip: FlashChip,
        config: BlockMapConfig | None = None,
    ) -> None:
        super().__init__(geometry, chip)
        self.config = config or BlockMapConfig()
        min_spare = self.config.replacement_slots + 1
        if geometry.spare_blocks < min_spare:
            raise FTLError(
                f"geometry provides {geometry.spare_blocks} spare blocks but "
                f"the block-map FTL needs at least {min_spare}"
            )
        self._open: OrderedDict[int, _Replacement] = OrderedDict()
        self.finalize_count = 0

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read_page(self, lpage: int, cost: CostAccumulator) -> int:
        """See :meth:`BaseFTL.read_page`: replacement block first, then data."""
        self._check_lpage(lpage)
        lblock, offset = divmod(lpage, self.geometry.pages_per_block)
        rep = self._open.get(lblock)
        if rep is not None and offset < rep.next_offset:
            cost.page_reads += 1
            return self._decode(self.chip.read(rep.pblock, offset))
        data = int(self._data_map[lblock])
        if data < 0 or offset >= self.chip.write_point(data):
            return ERASED
        cost.page_reads += 1
        return self._decode(self.chip.read(data, offset))

    def locate(self, lpages: np.ndarray) -> np.ndarray:
        """See :meth:`BaseFTL.locate`: the replacement block's prefix,
        else the data block below its write point.

        Pages padded with filler locate too — :meth:`read_page` charges
        them and decodes them to ERASED.
        """
        lpages = np.asarray(lpages, dtype=np.int64)
        ppb = self.geometry.pages_per_block
        lblocks = lpages // ppb
        offsets = lpages - lblocks * ppb
        data = self._data_map[lblocks]
        has_data = data >= 0
        in_data = has_data & (
            offsets < self.chip.write_points(np.where(has_data, data, 0))
        )
        ppages = np.where(in_data, data * ppb + offsets, -1)
        # the open replacements (a few slots) override the data block
        # for their written prefix; only the asked pages are resolved
        for lblock, rep in self._open.items():
            in_rep = (lblocks == lblock) & (offsets < rep.next_offset)
            ppages[in_rep] = rep.pblock * ppb + offsets[in_rep]
        return ppages

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def write_page(self, lpage: int, token: int, cost: CostAccumulator) -> None:
        """See :meth:`BaseFTL.write_page`: append, gap-fill or full copy."""
        self._check_write(lpage, token)
        lblock, offset = divmod(lpage, self.geometry.pages_per_block)
        rep = self._open.get(lblock)
        if rep is not None and offset < rep.next_offset:
            # Out of order: close this replacement and start over —
            # effectively a full block copy for a single page write.
            self._finalize(lblock, cost)
            rep = None
        if rep is None:
            rep = self._open_replacement(lblock, cost)
        if offset > rep.next_offset:
            self._fill_gap(rep, offset, cost)
        self.chip.program(rep.pblock, offset, token)
        cost.page_programs += 1
        rep.next_offset = offset + 1
        self._open.move_to_end(lblock)
        if rep.next_offset == self.geometry.pages_per_block:
            self._finalize(lblock, cost)

    def write_run(
        self,
        lpages: np.ndarray,
        tokens: np.ndarray,
        cost: CostAccumulator,
        *,
        ascending: bool = False,
    ) -> None:
        """See :meth:`BaseFTL.write_run`: one program run per logical
        block of a contiguous run.

        The first page of each logical block takes :meth:`write_page`,
        which opens, finalises or gap-fills exactly as the scalar loop
        does; the rest of that block's pages then continue its
        replacement in order — :meth:`write_page`'s pure append arm —
        as one ``program_run``, finalised when it fills the block.
        Other batches, out-of-range pages, invalid tokens and
        :attr:`~repro.flashsim.chip.FlashChip.reference` chips take the
        :meth:`write_page` loop, which raises at the exact page.
        """
        lpages = np.asarray(lpages, dtype=np.int64)
        tokens = np.asarray(tokens, dtype=np.int64)
        n = int(lpages.size)
        if (
            self.chip.reference
            or n < 2
            or int(lpages[-1]) - int(lpages[0]) != n - 1
            or not (ascending or bool((np.diff(lpages) == 1).all()))
            or int(lpages[0]) < 0
            or int(lpages[-1]) >= self.geometry.logical_pages
            or bool((tokens <= FILLER_TOKEN).any())
        ):
            for lpage, token in zip(lpages.tolist(), tokens.tolist()):
                self.write_page(lpage, token, cost)
            return
        ppb = self.geometry.pages_per_block
        i = 0
        while i < n:
            lblock, offset = divmod(int(lpages[i]), ppb)
            take = min(ppb - offset, n - i)
            self.write_page(int(lpages[i]), int(tokens[i]), cost)
            if take > 1:
                rep = self._open[lblock]
                rest = tokens[i + 1 : i + take]
                self.chip.program_run(rep.pblock, rep.next_offset, rest)
                cost.page_programs += take - 1
                rep.next_offset += take - 1
                if rep.next_offset == ppb:
                    self._finalize(lblock, cost)
            i += take

    def note_io_boundary(self, end_byte: int, cost: CostAccumulator) -> None:
        """Finalise the open replacement unless the IO ended on the commit boundary."""
        boundary = self.config.sync_commit_boundary
        if boundary and end_byte % boundary != 0 and self._open:
            # Finalise the replacement the IO just touched (the MRU one).
            lblock = next(reversed(self._open))
            self._finalize(lblock, cost)

    # ------------------------------------------------------------------
    # replacement management
    # ------------------------------------------------------------------

    def _open_replacement(self, lblock: int, cost: CostAccumulator) -> _Replacement:
        if len(self._open) >= self.config.replacement_slots:
            victim = next(iter(self._open))  # LRU
            self._finalize(victim, cost)
        if not self._free:
            raise OutOfSpaceError("block-map FTL exhausted all free blocks")
        rep = _Replacement(lblock, self._free_pop())
        self._open[lblock] = rep
        return rep

    def _fill_gap(self, rep: _Replacement, offset: int, cost: CostAccumulator) -> None:
        """Copy the pages the replacement skips, up to ``offset``, from
        the old physical block at their natural offsets (filler past the
        old block's write point) — one block-range copy."""
        sub = cost.begin_scope()
        self._copy_range(
            rep.pblock,
            rep.next_offset,
            offset,
            int(self._data_map[rep.lblock]),
            NO_PAGES,
            NO_PAGES,
            sub,
        )
        cost.end_scope("merge", sub)

    def _finalize(self, lblock: int, cost: CostAccumulator) -> None:
        """Complete a replacement: copy the old block's tail, swap the
        map, erase the old block."""
        rep = self._open.pop(lblock)
        old = int(self._data_map[lblock])
        sub = cost.begin_scope()
        if old >= 0:
            # the old block's tail behind the replacement's write point
            tail_end = self.chip.write_point(old)
            if tail_end > rep.next_offset:
                self._copy_range(
                    rep.pblock, rep.next_offset, tail_end, old, NO_PAGES, NO_PAGES, sub
                )
                rep.next_offset = tail_end
        self._set_data_block(lblock, rep.pblock, sub)
        self.finalize_count += 1
        sub.note("finalize")
        every = self.config.map_flush_every_blocks
        if every and self.finalize_count % every == 0:
            # rewrite of the on-flash inverse-map segment; the metadata
            # area lives outside the modelled address space, so only the
            # cost is charged
            sub.copy_programs += self.config.map_flush_pages
            sub.note("map-flush")
        cost.end_scope("merge", sub)

    def quiesce(self) -> CostAccumulator:
        """Finalise every open replacement block."""
        total = CostAccumulator()
        while self._open:
            self._finalize(next(iter(self._open)), total)
        return total

    # ------------------------------------------------------------------
    # introspection & invariants
    # ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """See :meth:`BaseFTL.metrics`: replacement-block finalisations,
        the map flushes they charged and the copy volume."""
        every = self.config.map_flush_every_blocks
        return {
            "finalizations": float(self.finalize_count),
            "map_flushes": float(self.finalize_count // every if every else 0),
            **super().metrics(),
        }

    def open_replacement_count(self) -> int:
        """Replacement blocks currently open."""
        return len(self._open)

    def check_invariants(self) -> None:
        """Verify the free pool, block conservation and
        replacement/chip consistency."""
        self._check_free_pool()
        self._check_block_roles(rep.pblock for rep in self._open.values())
        for rep in self._open.values():
            if self.chip.write_point(rep.pblock) != rep.next_offset:
                raise FTLError(
                    f"replacement for lblock {rep.lblock} desynchronised from chip"
                )
