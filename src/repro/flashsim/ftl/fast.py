"""FAST-style FTL: fully-shared random log blocks.

The fourth design point of the 2008 FTL spectrum (Lee et al.'s FAST,
contemporary with the paper): instead of dedicating a log block to one
logical block (BAST, :mod:`~repro.flashsim.ftl.hybrid`), all random
writes share a ring of log blocks, appended strictly in arrival order.
One dedicated sequential log absorbs stream writes (switch-mergeable).

Consequences — measurably different from BAST and therefore an
interesting ablation subject:

* random writes are absorbed at *volume* cost: a shared log fills after
  ``pages_per_block`` writes no matter how scattered they are, so four
  4 KiB random writes really do cost about one 16 KiB one (the paper's
  Figure 6 observation, which per-block logs cannot produce);
* the price appears at reclamation: merging a victim log requires a
  **full merge of every logical block with pages in it** — scattered
  writes inflate the distinct-block count, focused writes keep it low,
  which yields the Locality effect as a *gradual* curve.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import FTLError, OutOfSpaceError
from repro.flashsim.chip import ERASED, FlashChip
from repro.flashsim.ftl.base import BlockMappedFTL
from repro.flashsim.geometry import Geometry
from repro.flashsim.timing import CostAccumulator


@dataclass(frozen=True)
class FastConfig:
    """Tuning of a :class:`FastFTL`.

    ``shared_log_blocks`` is the random-log ring size; the sequential
    log is always exactly one block (as in the original FAST design).
    """

    shared_log_blocks: int = 6

    def __post_init__(self) -> None:
        if self.shared_log_blocks < 2:
            raise FTLError("the shared ring needs at least two log blocks")


class _SharedLog:
    """One shared log block: arrival-ordered pages of any logical block.

    ``lpage_of`` is the dense liveness map: position ``p`` holds the
    logical page whose *newest* copy lives at that position, or -1 once
    a later write supersedes it.  ``lpage_of >= 0`` is the log's live
    bitmap — reclamation derives the victim's distinct logical blocks
    from it with one vectorized scan instead of iterating a set.
    """

    __slots__ = ("pblock", "next_pos", "lpage_of")

    def __init__(self, pblock: int, pages_per_block: int) -> None:
        self.pblock = pblock
        self.next_pos = 0
        self.lpage_of = np.full(pages_per_block, -1, dtype=np.int64)


class _SeqLog:
    """The single sequential log block (offset == position)."""

    __slots__ = ("lblock", "pblock", "next_pos")

    def __init__(self, lblock: int, pblock: int) -> None:
        self.lblock = lblock
        self.pblock = pblock
        self.next_pos = 0


class FastFTL(BlockMappedFTL):
    """Shared random logs + one sequential log (FAST)."""

    _STATE_ATTRS = (
        "_data_map",
        "_free",
        "_shared_map",
        "_ring",
        "_current",
        "_seq",
        "_reclaiming",
        "merge_stats",
        "merge_copy_reads",
        "merge_copy_programs",
    )

    def __init__(
        self,
        geometry: Geometry,
        chip: FlashChip,
        config: FastConfig | None = None,
    ) -> None:
        super().__init__(geometry, chip)
        self.config = config or FastConfig()
        # ring + seq log + merge-target reserve with slack so that a
        # reclamation pass never exhausts the pool mid-merge
        min_spare = self.config.shared_log_blocks + 1 + 4
        if geometry.spare_blocks < min_spare:
            raise FTLError(
                f"geometry provides {geometry.spare_blocks} spare blocks but "
                f"the FAST FTL needs at least {min_spare}"
            )
        #: lpage -> (shared log, position) of the newest logged copy
        self._shared_map: dict[int, tuple[_SharedLog, int]] = {}
        self._ring: deque[_SharedLog] = deque()
        self._current: _SharedLog | None = None
        self._seq: _SeqLog | None = None
        self._reclaiming = False
        self.merge_stats = {"switch": 0, "full": 0, "log-reclaims": 0}

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read_page(self, lpage: int, cost: CostAccumulator) -> int:
        """See :meth:`BaseFTL.read_page`: shared map, then seq log, then data."""
        self._check_lpage(lpage)
        entry = self._shared_map.get(lpage)
        if entry is not None:
            log, position = entry
            cost.page_reads += 1
            return self._decode(self.chip.read(log.pblock, position))
        lblock, offset = divmod(lpage, self.geometry.pages_per_block)
        if self._seq is not None and self._seq.lblock == lblock:
            if offset < self._seq.next_pos:
                cost.page_reads += 1
                return self._decode(self.chip.read(self._seq.pblock, offset))
        data = int(self._data_map[lblock])
        if data < 0 or offset >= self.chip.write_point(data):
            return ERASED
        cost.page_reads += 1
        return self._decode(self.chip.read(data, offset))

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def write_page(
        self,
        lpage: int,
        token: int,
        cost: CostAccumulator,
        seq_hint: bool | None = None,
    ) -> None:
        """See :meth:`BaseFTL.write_page`: seq log for block starts, shared ring otherwise."""
        self._check_write(lpage, token)
        lblock, offset = divmod(lpage, self.geometry.pages_per_block)
        # FAST routes by offset: a block-start write goes to (and
        # claims) the single sequential log; anything else is random.
        if self._seq is not None and self._seq.lblock == lblock:
            if offset == self._seq.next_pos:
                self._append_seq(lpage, token, cost)
                return
            # the stream broke: the partial seq log is folded into the
            # random path by merging its block now
            self._close_seq(cost)
        if offset == 0:
            self._open_seq(lblock, cost)
            self._append_seq(lpage, token, cost)
            return
        self._append_shared(lpage, token, cost)

    # -- sequential log -----------------------------------------------

    def _open_seq(self, lblock: int, cost: CostAccumulator) -> None:
        if self._seq is not None:
            self._close_seq(cost)
        self._seq = _SeqLog(lblock, self._take_free(cost))

    def _append_seq(self, lpage: int, token: int, cost: CostAccumulator) -> None:
        seq = self._seq
        assert seq is not None
        self.chip.program(seq.pblock, seq.next_pos, token)
        cost.page_programs += 1
        seq.next_pos += 1
        # the logged copy supersedes any shared entry for this page
        self._drop_shared_entry(lpage)
        if seq.next_pos == self.geometry.pages_per_block:
            self._switch_seq(cost)

    def _switch_seq(self, cost: CostAccumulator) -> None:
        """The sequential log filled completely: swap it in."""
        seq = self._seq
        assert seq is not None
        sub = cost.begin_scope()
        self._set_data_block(seq.lblock, seq.pblock, sub)
        self._seq = None
        self.merge_stats["switch"] += 1
        sub.note("switch-merge")
        cost.end_scope("merge", sub)

    def _close_seq(self, cost: CostAccumulator) -> None:
        """A partial sequential log must be resolved: merge its block."""
        seq = self._seq
        assert seq is not None
        self._seq = None
        sub = cost.begin_scope()
        self._merge_block(seq.lblock, seq_log=seq, cost=sub)
        self._recycle(seq.pblock, sub)
        cost.end_scope("merge", sub)

    # -- shared ring ----------------------------------------------------

    def _append_shared(self, lpage: int, token: int, cost: CostAccumulator) -> None:
        if self._current is None or self._current.next_pos == self.geometry.pages_per_block:
            if len(self._ring) >= self.config.shared_log_blocks:
                self._reclaim_oldest(cost)
            log = _SharedLog(self._take_free(cost), self.geometry.pages_per_block)
            self._ring.append(log)
            self._current = log
        log = self._current
        self.chip.program(log.pblock, log.next_pos, token)
        cost.page_programs += 1
        self._drop_shared_entry(lpage)
        self._shared_map[lpage] = (log, log.next_pos)
        log.lpage_of[log.next_pos] = lpage
        log.next_pos += 1

    def _drop_shared_entry(self, lpage: int) -> None:
        entry = self._shared_map.pop(lpage, None)
        if entry is not None:
            log, position = entry
            log.lpage_of[position] = -1

    def _reclaim_oldest(self, cost: CostAccumulator) -> None:
        """FAST's reclamation: fully merge every logical block that
        still has live pages in the oldest shared log, then erase it."""
        if self._reclaiming:
            raise FTLError("re-entrant shared-log reclamation")
        self._reclaiming = True
        try:
            self._reclaim_oldest_locked(cost)
        finally:
            self._reclaiming = False

    def _reclaim_oldest_locked(self, cost: CostAccumulator) -> None:
        victim = self._ring.popleft()
        if victim is self._current:
            self._current = None
        ppb = self.geometry.pages_per_block
        live = victim.lpage_of[victim.lpage_of >= 0]
        blocks = np.unique(live // ppb)  # distinct lblocks, ascending
        sub = cost.begin_scope()
        for lblock in blocks.tolist():
            self._merge_block(int(lblock), seq_log=None, cost=sub)
        if bool((victim.lpage_of >= 0).any()):
            raise FTLError("shared log still live after reclaiming its blocks")
        self._recycle(victim.pblock, sub)
        self.merge_stats["log-reclaims"] += 1
        sub.note("log-reclaim")
        cost.end_scope("merge", sub)

    # -- merging ---------------------------------------------------------

    def _merge_block(
        self,
        lblock: int,
        seq_log: _SeqLog | None,
        cost: CostAccumulator,
    ) -> None:
        """Full merge: consolidate ``lblock``'s newest content (data
        block + shared logs + optional partial seq log) into a fresh
        block as one block-range copy, dropping every shared entry of
        the block.

        The old data block is the copy's base; the overlay holds the
        newest logged copy of each offset — a shared-log entry, else the
        partial seq log — and the copy runs up to the highest offset any
        of them holds.
        """
        ppb = self.geometry.pages_per_block
        sub = cost.begin_scope()
        target = self._take_free(sub)
        old = int(self._data_map[lblock])
        base = lblock * ppb
        overlay = np.full(ppb, -1, dtype=np.int64)  # offset -> logged page
        if seq_log is not None:
            first = seq_log.pblock * ppb
            overlay[: seq_log.next_pos] = np.arange(first, first + seq_log.next_pos)
        shared = [
            lpage for lpage in range(base, base + ppb) if lpage in self._shared_map
        ]
        for lpage in shared:
            log, position = self._shared_map[lpage]
            overlay[lpage - base] = log.pblock * ppb + position
        offsets = np.flatnonzero(overlay >= 0)
        stop = int(offsets[-1]) + 1 if offsets.size else 0
        if old >= 0:
            stop = max(stop, self.chip.write_point(old))
        self._copy_range(target, 0, stop, old, offsets, overlay[offsets], sub)
        for lpage in shared:
            self._drop_shared_entry(lpage)
        self._set_data_block(lblock, target, sub)
        self.merge_stats["full"] += 1
        sub.note("full-merge")
        cost.end_scope("merge", sub)

    # -- allocation -------------------------------------------------------

    def _take_free(self, cost: CostAccumulator) -> int:
        while len(self._free) < 3 and self._ring and not self._reclaiming:
            self._reclaim_oldest(cost)
        if not self._free:
            raise OutOfSpaceError("FAST FTL exhausted all free blocks")
        return self._free_pop()

    # ------------------------------------------------------------------
    # introspection & invariants
    # ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """See :meth:`BaseFTL.metrics`: switch merges, full merges, ring
        reclaims and copy volume."""
        return {
            "switch_merges": float(self.merge_stats["switch"]),
            "full_merges": float(self.merge_stats["full"]),
            "log_reclaims": float(self.merge_stats["log-reclaims"]),
            **super().metrics(),
        }

    def quiesce(self) -> CostAccumulator:
        """Reclaim the whole shared ring and resolve the sequential log."""
        total = CostAccumulator()
        while self._ring:
            self._reclaim_oldest(total)
        if self._seq is not None:
            self._close_seq(total)
        return total

    def check_invariants(self) -> None:
        """Verify the free pool, block conservation and shared-map/live-set
        consistency."""
        self._check_free_pool()
        logs = [log.pblock for log in self._ring]
        if self._seq is not None:
            logs.append(self._seq.pblock)
        self._check_block_roles(logs)
        ring_logs = set(map(id, self._ring))
        for lpage, (log, position) in self._shared_map.items():
            if id(log) not in ring_logs:
                raise FTLError(f"shared entry for {lpage} points outside the ring")
            if int(log.lpage_of[position]) != lpage:
                raise FTLError(
                    f"shared entry for {lpage} not live at its log position"
                )
            if position >= log.next_pos:
                raise FTLError(f"shared entry for {lpage} beyond the log write point")
        for log in self._ring:
            if bool((log.lpage_of[log.next_pos :] >= 0).any()):
                raise FTLError("live positions beyond a shared log's write point")
            for position in np.flatnonzero(log.lpage_of >= 0).tolist():
                lpage = int(log.lpage_of[position])
                entry = self._shared_map.get(lpage)
                if entry is None or entry[0] is not log or entry[1] != position:
                    raise FTLError(f"live page {lpage} not mapped to its log")
