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

from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from repro.errors import FTLError, OutOfSpaceError
from repro.flashsim.chip import ERASED, FlashChip
from repro.flashsim.ftl.base import FILLER_TOKEN, BaseFTL
from repro.flashsim.bitmap import mask_from_indices
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


class BlockMapFTL(BaseFTL):
    """One-to-one block mapping with in-order replacement blocks."""

    batch_read_capable = True

    _STATE_ATTRS = ("_data_map", "_free", "_open", "finalize_count")

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
        self._data_map = np.full(geometry.logical_blocks, -1, dtype=np.int64)
        self._free: deque[int] = deque(range(geometry.physical_blocks))
        # dense free-block bitmap mirroring the queue (membership only;
        # the queue keeps the allocation order) — derived state, rebuilt
        # on restore rather than snapshotted
        self._free_map = np.ones(geometry.physical_blocks, dtype=bool)
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

    def read_pages(
        self,
        lpages: np.ndarray,
        cost: CostAccumulator,
        *,
        ascending: bool = False,
    ) -> np.ndarray:
        """See :meth:`BaseFTL.read_pages`: whole-run chip reads.

        A contiguous ascending run decomposes, per logical block, into a
        replacement-block prefix, a data-block middle and an ERASED tail
        — three slice reads instead of a per-page loop.  Non-contiguous
        batches fall back to the scalar reference path.
        """
        lpages = np.asarray(lpages, dtype=np.int64)
        n = int(lpages.size)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if not self.batch_enabled or n == 1 or bool((np.diff(lpages) != 1).any()):
            return super().read_pages(lpages, cost)
        self._check_lpage(int(lpages[0]))
        self._check_lpage(int(lpages[-1]))
        ppb = self.geometry.pages_per_block
        tokens = np.full(n, ERASED, dtype=np.int64)
        i = 0
        while i < n:
            lblock, offset = divmod(int(lpages[i]), ppb)
            seg = min(n - i, ppb - offset)
            end_offset = offset + seg
            pos, cur = i, offset
            rep = self._open.get(lblock)
            if rep is not None and cur < rep.next_offset:
                take = min(end_offset, rep.next_offset) - cur
                raw = self.chip.read_run(rep.pblock, cur, take)
                tokens[pos : pos + take] = np.where(raw == FILLER_TOKEN, ERASED, raw)
                cost.page_reads += take
                pos += take
                cur += take
            if cur < end_offset:
                data = int(self._data_map[lblock])
                if data >= 0:
                    write_point = self.chip.write_point(data)
                    if cur < write_point:
                        take = min(end_offset, write_point) - cur
                        raw = self.chip.read_run(data, cur, take)
                        tokens[pos : pos + take] = np.where(
                            raw == FILLER_TOKEN, ERASED, raw
                        )
                        cost.page_reads += take
            i += seg
        return tokens

    @staticmethod
    def _decode(token: int) -> int:
        return ERASED if token == FILLER_TOKEN else token

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def write_page(self, lpage: int, token: int, cost: CostAccumulator) -> None:
        """See :meth:`BaseFTL.write_page`: append, gap-fill or full copy.

        The analytic block-map kernel
        (:func:`repro.flashsim.analytic._blockmap_write_window`) takes
        the in-order append arm of this method in closed form — a
        page-aligned IO continuing ``rep.next_offset`` mints tokens,
        programs one run and bumps the offset without entering here —
        and replays the controller path (which lands in this method)
        for every other shape.  Changes to the append/finalise rules
        here must be mirrored there to preserve bit-identity.
        """
        self._check_lpage(lpage)
        if token <= FILLER_TOKEN:
            raise FTLError(f"host tokens must be > {FILLER_TOKEN}, got {token}")
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
            self._copy_range(rep, rep.next_offset, offset, cost)
        self.chip.program(rep.pblock, offset, token)
        cost.page_programs += 1
        rep.next_offset = offset + 1
        self._open.move_to_end(lblock)
        if rep.next_offset == self.geometry.pages_per_block:
            self._finalize(lblock, cost)

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
        block = self._free.popleft()
        self._free_map[block] = False
        rep = _Replacement(lblock, block)
        self._open[lblock] = rep
        return rep

    def _copy_range(
        self, rep: _Replacement, start: int, end: int, cost: CostAccumulator
    ) -> None:
        """Copy pages ``[start, end)`` of the logical block from the old
        physical block into the replacement (filling gaps with filler)."""
        old = int(self._data_map[rep.lblock])
        old_end = self.chip.write_point(old) if old >= 0 else 0
        ppb = self.geometry.pages_per_block
        sources = np.arange(old * ppb + start, old * ppb + end)
        sources[max(old_end - start, 0) :] = -1
        sub = cost.begin_scope()
        self._copy_pages(sources, rep.pblock, start, sub)
        cost.end_scope("merge", sub)

    def _finalize(self, lblock: int, cost: CostAccumulator) -> None:
        """Complete a replacement: copy the old block's tail, swap the
        map, erase the old block."""
        rep = self._open.pop(lblock)
        old = int(self._data_map[lblock])
        sub = cost.begin_scope()
        if old >= 0:
            tail_end = self.chip.write_point(old)
            if tail_end > rep.next_offset:
                self._copy_range_tail(rep, tail_end, old, sub)
        self._data_map[lblock] = rep.pblock
        if old >= 0:
            self.chip.erase(old)
            sub.block_erases += 1
            self._free_map[old] = True
            self._free.append(old)
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

    def _copy_range_tail(
        self, rep: _Replacement, tail_end: int, old: int, cost: CostAccumulator
    ) -> None:
        ppb = self.geometry.pages_per_block
        self._copy_pages(
            np.arange(old * ppb + rep.next_offset, old * ppb + tail_end),
            rep.pblock,
            rep.next_offset,
            cost,
        )
        rep.next_offset = tail_end

    def quiesce(self) -> CostAccumulator:
        """Finalise every open replacement block."""
        total = CostAccumulator()
        while self._open:
            self._finalize(next(iter(self._open)), total)
        return total

    # ------------------------------------------------------------------
    # introspection & invariants
    # ------------------------------------------------------------------

    def restore(self, state: dict) -> None:
        """See :meth:`BaseFTL.restore`; rebuilds the free bitmap."""
        super().restore(state)
        self._free_map = mask_from_indices(
            self._free, self.geometry.physical_blocks
        )

    def metrics(self) -> dict[str, float]:
        """See :meth:`BaseFTL.metrics`: replacement-block finalisations."""
        return {"finalizations": float(self.finalize_count)}

    def free_blocks(self) -> int:
        """Number of erased, unassigned physical blocks."""
        return len(self._free)

    def open_replacement_count(self) -> int:
        """Replacement blocks currently open."""
        return len(self._open)

    def check_invariants(self) -> None:
        """Verify block conservation and replacement/chip consistency.

        All bulk checks run on dense buffers: the free bitmap against
        the queue and the chip's erased mask, role conservation as a
        vectorized claim count, and per-replacement write points.
        """
        nblocks = self.geometry.physical_blocks
        free_idx = np.fromiter(self._free, dtype=np.int64, count=len(self._free))
        if not np.array_equal(np.sort(free_idx), np.flatnonzero(self._free_map)):
            raise FTLError("free queue out of sync with the free bitmap")
        not_erased = self._free_map & ~self.chip.erased_mask()
        if not_erased.any():
            block = int(np.flatnonzero(not_erased)[0])
            raise FTLError(f"free block {block} is not erased")
        claims = np.zeros(nblocks, dtype=np.int64)
        claims[self._free_map] += 1
        data = self._data_map[self._data_map >= 0]
        np.add.at(claims, data, 1)
        for rep in self._open.values():
            claims[rep.pblock] += 1
            if self.chip.write_point(rep.pblock) != rep.next_offset:
                raise FTLError(
                    f"replacement for lblock {rep.lblock} desynchronised from chip"
                )
        if (claims > 1).any():
            block = int(np.flatnonzero(claims > 1)[0])
            raise FTLError(f"physical block {block} has two roles")
        claimed = int(np.count_nonzero(claims))
        if claimed != nblocks:
            raise FTLError(
                f"block conservation violated: {claimed} of "
                f"{nblocks} physical blocks accounted for"
            )
