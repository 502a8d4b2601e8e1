"""Hybrid log-block FTL (the dominant 2008 SSD/flash-drive design).

Data blocks are **block-mapped**: logical block ``b`` lives in one
physical block with pages at their natural offsets.  Incoming writes are
absorbed by a small pool of **log blocks**.  When a log block fills or
must be evicted it is *merged* with its data block:

* **switch merge** — the log was written fully and in order: it simply
  becomes the new data block and the old one is erased (cheap; this is
  why sequential writes are fast);
* **partial merge** — the log holds an in-order prefix: the tail is
  copied from the old data block, then as a switch merge;
* **full merge** — the log holds pages out of order: every page of the
  logical block is copied to a fresh block and both old blocks are
  erased (expensive; this is why random writes are slow).

Both copying merges are one block-range copy on the chip
(:meth:`~repro.flashsim.chip.FlashChip.copy_range`): the old data
block's pages at their natural offsets, overlaid by the log's pages
(full merge) or behind the log's in-order prefix (partial merge), filler
where neither holds a page.  They charge the per-page copy counts the
paper's cost model needs, without a read/program call pair per page.

Following the LAST/SAST lineage of 2008-era controllers, the log pool is
**split in two** — this is what decouples the paper's Partitioning limit
from its Locality area (Table 3 shows Mtron with 4 partitions but an
8 MB locality area):

``seq_log_blocks``
    Logs opened by a write of a block's *first page* (a sequential
    stream starting).  They fill in order and switch-merge for free —
    the resource behind the *Partitioning* limit (4–8 concurrent
    sequential streams).  A sequential log that receives an
    out-of-order page is demoted to the random pool.
``rnd_log_blocks``
    Logs for everything else.  A block whose random log stays resident
    amortises one merge over many writes, so random writes confined to
    ``rnd_log_blocks x block_size`` bytes stay cheap — the *Locality*
    area.
``page_mapped_logs``
    Whether a log block accepts pages in arbitrary order (high-end
    controllers) or only in-order appends (cheap controllers, which must
    close the log on the first out-of-order write).

Merges can be **deferred**: a closed log is queued and merged either by
the background reclaimer (during idle time — the paper's asynchronous
page reclamation, visible in the Pause/Burst micro-benchmarks and in
Figure 5) or in the foreground when the free-block pool runs dry (the
oscillating *running phase* of Figures 3 and 4).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from repro.errors import FTLError, OutOfSpaceError
from repro.flashsim.chip import ERASED, FlashChip
from repro.flashsim.ftl.base import FILLER_TOKEN, NO_PAGES, BlockMappedFTL
from repro.flashsim.geometry import Geometry
from repro.flashsim.timing import CostAccumulator


@dataclass(frozen=True)
class HybridConfig:
    """Tuning of a :class:`HybridLogFTL`.

    ``bg_target_blocks`` is the free-pool level the background reclaimer
    restores during idle time; it bounds the length of the start-up phase
    observed for random writes (Figure 3).  Devices without asynchronous
    reclamation set ``bg_enabled=False`` and show no start-up phase and
    no Pause benefit (Table 3).
    """

    seq_log_blocks: int = 4
    rnd_log_blocks: int = 8
    page_mapped_logs: bool = True
    bg_enabled: bool = False
    bg_target_blocks: int = 0

    def __post_init__(self) -> None:
        if self.seq_log_blocks < 1 or self.rnd_log_blocks < 1:
            raise FTLError("both log pools need at least one block")
        if self.bg_enabled and self.bg_target_blocks < 1:
            raise FTLError("bg_target_blocks must be >= 1 when bg_enabled")

    @property
    def log_blocks(self) -> int:
        """Total log pool size (both tiers)."""
        return self.seq_log_blocks + self.rnd_log_blocks


class _LogBlock:
    """One log block: physical block + dense page map of what landed where.

    ``pos_of`` maps each page offset of the logical block to the log
    position holding its newest copy (-1 = not in this log) — an int16
    vector instead of a dict, so reads, merges and invariant checks
    index it directly and merge scans are single vectorized expressions.
    It starts as a copy of ``empty_map`` (all -1), which the FTL builds
    once instead of one ``np.full`` per log open.
    """

    __slots__ = ("lblock", "pblock", "next_pos", "pos_of", "in_order")

    def __init__(self, lblock: int, pblock: int, empty_map: np.ndarray) -> None:
        self.lblock = lblock
        self.pblock = pblock
        self.next_pos = 0  # next program position (chip write point)
        # page offset -> latest log position (-1 = absent)
        self.pos_of = empty_map.copy()
        self.in_order = True  # offsets written == 0..next_pos-1 in order

    def record(self, offset: int) -> None:
        """Note that ``offset`` was just programmed at ``next_pos``."""
        if offset != self.next_pos or self.pos_of[offset] >= 0:
            self.in_order = False
        self.pos_of[offset] = self.next_pos
        self.next_pos += 1


class HybridLogFTL(BlockMappedFTL):
    """Block-mapped FTL with a page-mapped (or in-order) log-block pool."""

    _STATE_ATTRS = (
        "_data_map",
        "_free",
        "_open_seq",
        "_open_rnd",
        "_pending",
        "_pending_by_lblock",
        "_stream_tails",
        "merge_stats",
        "merge_copy_reads",
        "merge_copy_programs",
    )

    def __init__(
        self,
        geometry: Geometry,
        chip: FlashChip,
        config: HybridConfig | None = None,
    ) -> None:
        super().__init__(geometry, chip)
        self.config = config or HybridConfig()
        spare = geometry.spare_blocks
        # The log pool, one in-flight merge target and the background
        # head-room must all fit in the spare area.
        min_spare = self.config.log_blocks + 2
        if spare < min_spare:
            raise FTLError(
                f"geometry provides {spare} spare blocks but the hybrid FTL "
                f"needs at least {min_spare} (log pool + merge reserve)"
            )
        if self.config.bg_enabled and self.config.bg_target_blocks > spare - min_spare + 1:
            raise FTLError(
                "bg_target_blocks exceeds what the spare area can hold"
            )
        # open logs, LRU first, split into the two tiers: sequential
        # (stream) logs and random logs
        self._open_seq: OrderedDict[int, _LogBlock] = OrderedDict()
        self._open_rnd: OrderedDict[int, _LogBlock] = OrderedDict()
        # closed logs awaiting merge, oldest first.  A logical block may
        # have several pending generations (plus an open log); reads
        # consult newest first and merges apply oldest first, so the
        # final state always converges to the newest writes.
        self._pending: deque[_LogBlock] = deque()
        self._pending_by_lblock: dict[int, list[_LogBlock]] = {}
        # Sequential-stream detector: logical block -> the offset where
        # the block's last sequential run ended.  A run continuing a tail
        # is stream traffic and must use (and compete for) the scarce
        # sequential log slots even after its log was evicted — this is
        # what makes too many concurrent partitions degrade (Table 3).
        self._stream_tails: OrderedDict[int, int] = OrderedDict()
        self._stream_tail_capacity = 4 * self.config.log_blocks
        self.merge_stats = {"switch": 0, "partial": 0, "full": 0}
        # the page map of a freshly opened log (derived, never mutated)
        self._empty_map = np.full(geometry.pages_per_block, -1, dtype=np.int16)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read_page(self, lpage: int, cost: CostAccumulator) -> int:
        """See :meth:`BaseFTL.read_page`: open log, pending generations (newest first), then data."""
        self._check_lpage(lpage)
        ppb = self.geometry.pages_per_block
        lblock, offset = divmod(lpage, ppb)
        candidates: list[_LogBlock] = []
        open_log = self._open_seq.get(lblock) or self._open_rnd.get(lblock)
        if open_log is not None:
            candidates.append(open_log)
        candidates.extend(reversed(self._pending_by_lblock.get(lblock, ())))
        for log in candidates:
            if log.pos_of[offset] >= 0:
                cost.page_reads += 1
                return self._decode(
                    self.chip.read(log.pblock, int(log.pos_of[offset]))
                )
        data = int(self._data_map[lblock])
        if data < 0:
            return ERASED
        cost.page_reads += 1
        return self._decode(self.chip.read(data, offset))

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def write_run(
        self,
        lpages: np.ndarray,
        tokens: np.ndarray,
        cost: CostAccumulator,
        *,
        ascending: bool = False,
    ) -> None:
        """See :meth:`BaseFTL.write_run`: classify each consecutive run
        once as sequential stream traffic or random traffic (LAST-style
        routing).

        The first page of each logical-block segment of a run goes
        through :meth:`write_page` (routing, promotion, stream restart,
        log open and eviction); the rest of the segment lands in that
        log as one program run (:meth:`_append`).  On a
        :attr:`~repro.flashsim.chip.FlashChip.reference` chip every page
        takes :meth:`write_page` — the scalar reference path.
        """
        lpages = np.asarray(lpages, dtype=np.int64)
        tokens = np.asarray(tokens, dtype=np.int64)
        n = int(lpages.size)
        if n == 0:
            return
        pages = lpages.tolist()
        values = tokens.tolist()
        if ascending and pages[-1] - pages[0] == n - 1:
            bounds = [0, n]
        else:
            breaks = (k for k in range(1, n) if pages[k] != pages[k - 1] + 1)
            bounds = [0, *breaks, n]
        # pages before the first invalid token may append; write_page
        # raises on that token
        valid = n
        if min(values) <= FILLER_TOKEN:
            valid = next(k for k, token in enumerate(values) if token <= FILLER_TOKEN)
        scalar = self.chip.reference
        for run_start, run_stop in zip(bounds, bounds[1:]):
            seq = self._classify_run(pages[run_start], pages[run_stop - 1])
            stop = min(run_stop, valid)
            i = run_start
            while i < run_stop:
                self.write_page(pages[i], values[i], cost, seq_hint=seq)
                i += 1
                if not scalar and i < stop:
                    i += self._append(pages[i], tokens[i:stop], cost)

    def _append(self, lpage: int, tokens: np.ndarray, cost: CostAccumulator) -> int:
        """Append a run of valid ``tokens`` from ``lpage`` on to the log
        that just took ``lpage - 1``.

        Takes the pages that stay in that logical block, up to the log's
        free positions (in-order-only logs: only when ``lpage`` is the
        log's next position), as one :meth:`FlashChip.program_run` plus
        slice updates of the log's page map — exactly what
        :meth:`write_page` does page by page once routing is settled:
        later pages of a segment never promote, restart a stream or open
        a log.  Returns the number of pages taken (0 when the segment
        ended, the log closed or it would close on ``lpage``).
        """
        ppb = self.geometry.pages_per_block
        lblock, offset = divmod(lpage, ppb)
        pool = self._pool_of(lblock) if offset else None
        if pool is None:
            return 0
        log = pool[lblock]
        start = log.next_pos
        if not self.config.page_mapped_logs and offset != start:
            return 0
        n = min(int(tokens.size), ppb - offset, ppb - start)
        self.chip.program_run(log.pblock, start, tokens[:n])
        cost.page_programs += n
        # an in-order log maps offsets 0..start-1 to themselves, so the
        # run keeps it in order exactly when it starts at ``start``
        if offset != start:
            log.in_order = False
        log.pos_of[offset : offset + n] = np.arange(start, start + n)
        log.next_pos = start + n
        pool.move_to_end(lblock)
        if log.next_pos == ppb:
            self._close_log(lblock, cost)
        return n

    def _classify_run(self, first_lpage: int, last_lpage: int) -> bool:
        """Sequential-class: the run *continues* a tracked stream tail.

        A run starting at a block's first page only *registers* a stream
        candidate (isolated random writes that happen to hit offset 0
        look identical to a stream's first request); the stream is
        confirmed — and its log promoted into a scarce stream slot —
        when the continuation arrives.
        """
        ppb = self.geometry.pages_per_block
        lblock, offset = divmod(first_lpage, ppb)
        seq = self._stream_tails.get(lblock) == offset and offset != 0
        if seq or offset == 0:
            end = (last_lpage % ppb) + 1
            self._stream_tails[lblock] = end % ppb
            self._stream_tails.move_to_end(lblock)
            if end == ppb:
                # the stream may roll into the next block
                if lblock + 1 < self.geometry.logical_blocks:
                    self._stream_tails.setdefault(lblock + 1, 0)
            while len(self._stream_tails) > self._stream_tail_capacity:
                self._stream_tails.popitem(last=False)
        return seq

    def write_page(
        self,
        lpage: int,
        token: int,
        cost: CostAccumulator,
        seq_hint: bool | None = None,
    ) -> None:
        """See :meth:`BaseFTL.write_page`: route to a log by stream class, merge as needed."""
        self._check_write(lpage, token)
        ppb = self.geometry.pages_per_block
        lblock, offset = divmod(lpage, ppb)

        if seq_hint is None:
            seq_hint = self._classify_run(lpage, lpage)
        pool = self._pool_of(lblock)
        if (
            seq_hint
            and pool is self._open_rnd
            and lblock in self._open_rnd
        ):
            # Stream confirmed by its continuation: promote the log from
            # the random pool into a (scarce) stream slot.
            self._promote(lblock)
            pool = self._open_seq
        log = pool.get(lblock) if pool is not None else None
        if log is not None and not self.config.page_mapped_logs:
            # A cheap controller's log only takes in-order appends.
            if offset != log.next_pos:
                self._close_log(lblock, cost)
                log = pool = None
        elif log is not None and self._stream_restart(log, offset):
            # Sequential-stream detection: a write of the block's first
            # page into a stale log signals the whole block is about to
            # be rewritten.  Retiring the stale log lets the fresh one
            # fill in order and *switch* in — and the switch supersedes
            # the retired generation, erasing it for free.  Without this
            # a sequential pass over blocks with leftover log pages
            # degrades to full merges.
            self._retire_open(lblock)
            log = pool = None
        if log is None:
            pool = self._open_seq if seq_hint else self._open_rnd
            log = self._open_log(lblock, pool, cost)
        self.chip.program(log.pblock, log.next_pos, token)
        cost.page_programs += 1
        log.record(offset)
        pool.move_to_end(lblock)
        if log.next_pos == ppb:
            self._close_log(lblock, cost)

    # ------------------------------------------------------------------
    # log pool management
    # ------------------------------------------------------------------

    def _pool_of(self, lblock: int) -> OrderedDict[int, _LogBlock] | None:
        """The open pool currently holding ``lblock``'s log, if any."""
        if lblock in self._open_seq:
            return self._open_seq
        if lblock in self._open_rnd:
            return self._open_rnd
        return None

    def _pool_capacity(self, pool: OrderedDict[int, _LogBlock]) -> int:
        if pool is self._open_seq:
            return self.config.seq_log_blocks
        return self.config.rnd_log_blocks

    def _open_log(
        self,
        lblock: int,
        pool: OrderedDict[int, _LogBlock],
        cost: CostAccumulator,
    ) -> _LogBlock:
        """Allocate a log block for ``lblock`` in ``pool``, evicting the
        pool's LRU entry when it is full."""
        if len(pool) >= self._pool_capacity(pool):
            self._retire_open(next(iter(pool)))  # LRU
        pblock = self._take_free(cost)
        log = _LogBlock(lblock, pblock, self._empty_map)
        pool[lblock] = log
        return log

    @staticmethod
    def _stream_restart(log: _LogBlock, offset: int) -> bool:
        """Whether a write to ``offset`` looks like a sequential stream
        restarting at the block boundary over a stale log.

        Requires offset 0, a non-pristine log, and that the log has not
        seen offset 0 yet — the last condition keeps in-place rewrites of
        a block's first page (the Order micro-benchmark's Incr = 0) from
        flooding the device with one-page log generations.
        """
        return offset == 0 and log.next_pos != 0 and log.pos_of[0] < 0

    def _defer(self, log: _LogBlock) -> None:
        """Queue a closed log for a deferred merge (age order)."""
        self._pending.append(log)
        self._pending_by_lblock.setdefault(log.lblock, []).append(log)

    def _promote(self, lblock: int) -> None:
        """Move a confirmed stream's log into the sequential pool."""
        log = self._open_rnd.pop(lblock)
        if len(self._open_seq) >= self.config.seq_log_blocks:
            self._retire_open(next(iter(self._open_seq)))
        self._open_seq[lblock] = log

    def _pop_open(self, lblock: int) -> _LogBlock:
        pool = self._pool_of(lblock)
        if pool is None:
            raise FTLError(f"no open log for logical block {lblock}")
        return pool.pop(lblock)

    def _retire_open(self, lblock: int) -> None:
        """Evict an open log: queue it for a deferred merge."""
        self._defer(self._pop_open(lblock))

    def _close_log(self, lblock: int, cost: CostAccumulator) -> None:
        """A log filled (or must close): switch-merge now if cheap,
        otherwise defer the expensive merge.

        A full in-order log covers every page of its logical block, so
        it *supersedes* all older pending generations: the switch merge
        erases them outright instead of ever merging them.
        """
        log = self._pop_open(lblock)
        ppb = self.geometry.pages_per_block
        if log.in_order and log.next_pos == ppb:
            self._supersede_pending(lblock, cost)
            self._switch_merge(log, cost)
        else:
            self._defer(log)

    def _supersede_pending(self, lblock: int, cost: CostAccumulator) -> None:
        """Erase every pending generation of ``lblock`` — its content is
        entirely superseded by a full in-order log about to switch in."""
        generations = self._pending_by_lblock.pop(lblock, None)
        if not generations:
            return
        sub = cost.begin_scope()
        for log in generations:
            self._pending.remove(log)
            self._recycle(log.pblock, sub)
            sub.note("superseded")
        cost.end_scope("merge", sub)

    def _take_free(self, cost: CostAccumulator) -> int:
        """Pop an erased block, reclaiming in the foreground if the pool
        is down to the merge reserve (this is the expensive path random
        writes hit once the start-up phase ends)."""
        while len(self._free) < 2 and (
            self._pending or self._open_rnd or self._open_seq
        ):
            if not self._reclaim_one(cost):
                break
        if not self._free:
            raise OutOfSpaceError("hybrid FTL exhausted all free blocks")
        return self._free_pop()

    def _reclaim_one(self, cost: CostAccumulator) -> bool:
        """Merge one queued (or, failing that, LRU open) log block.

        Always the *oldest* pending generation: merges must apply in age
        order so newer generations overwrite older data.
        """
        if self._pending:
            log = self._pending.popleft()
            generations = self._pending_by_lblock[log.lblock]
            generations.pop(0)
            if not generations:
                del self._pending_by_lblock[log.lblock]
        elif self._open_rnd:
            log = self._open_rnd.pop(next(iter(self._open_rnd)))
        elif self._open_seq:
            log = self._open_seq.pop(next(iter(self._open_seq)))
        else:
            return False
        self._merge(log, cost)
        return True

    # ------------------------------------------------------------------
    # merges
    # ------------------------------------------------------------------

    def _switch_merge(self, log: _LogBlock, cost: CostAccumulator) -> None:
        """The log holds the complete block in order: just swap it in."""
        sub = cost.begin_scope()
        self._set_data_block(log.lblock, log.pblock, sub)
        self.merge_stats["switch"] += 1
        sub.note("switch-merge")
        cost.end_scope("merge", sub)

    def _merge(self, log: _LogBlock, cost: CostAccumulator) -> None:
        """Merge a closed log with its data block (partial or full).

        A log holding an in-order prefix takes :meth:`_partial_merge`.
        Otherwise a full merge consolidates the logical block into a
        fresh block with one block-range copy
        (:meth:`~repro.flashsim.chip.FlashChip.copy_range`): the old data
        block's pages at their natural offsets up to its write point,
        overlaid by the log's newest copy of each offset it holds,
        filler in between, up to the highest offset either holds.  Both
        old blocks are then erased.
        """
        old = int(self._data_map[log.lblock])
        if log.in_order:
            self._partial_merge(log, old, cost)
            return
        # One free block is always reserved for this; the merge returns
        # two (log + old data).
        if not self._free:
            raise OutOfSpaceError("no merge reserve block available")
        sub = cost.begin_scope()
        target = self._free_pop()
        pos_of = log.pos_of
        offsets = (pos_of >= 0).nonzero()[0]
        stop = int(offsets[-1]) + 1 if offsets.size else 0
        if old >= 0:
            stop = max(stop, self.chip.write_point(old))
        # an int64 scalar widens the int16 positions before the add
        first = np.int64(log.pblock * self.geometry.pages_per_block)
        self._copy_range(target, 0, stop, old, offsets, pos_of[offsets] + first, sub)
        self._data_map[log.lblock] = target
        self._recycle(log.pblock, sub)
        if old >= 0:
            self._recycle(old, sub)
        self.merge_stats["full"] += 1
        sub.note("full-merge")
        cost.end_scope("merge", sub)

    def _partial_merge(self, log: _LogBlock, old: int, cost: CostAccumulator) -> None:
        """The log holds an in-order prefix: copy the old block's tail
        behind it, from the log's write point up to the old block's, as
        one block-range copy with no overlay; then switch it in."""
        sub = cost.begin_scope()
        if old >= 0:
            self._copy_range(
                log.pblock,
                log.next_pos,
                self.chip.write_point(old),
                old,
                NO_PAGES,
                NO_PAGES,
                sub,
            )
        self._set_data_block(log.lblock, log.pblock, sub)
        self.merge_stats["partial"] += 1
        sub.note("partial-merge")
        cost.end_scope("merge", sub)

    # ------------------------------------------------------------------
    # background reclamation
    # ------------------------------------------------------------------

    def background_work_pending(self) -> bool:
        """Whether deferred merges exist (only when bg_enabled)."""
        if not self.config.bg_enabled:
            return False
        if self._pending:
            return True
        return len(self._free) < self.config.bg_target_blocks and bool(
            self._open_rnd or self._open_seq
        )

    def do_background_unit(self) -> CostAccumulator | None:
        """Merge one log block in the background; None when nothing pends."""
        if not self.background_work_pending():
            return None
        cost = CostAccumulator()
        self._reclaim_one(cost)
        return cost

    def quiesce(self) -> CostAccumulator:
        """Merge every pending generation and every open log."""
        total = CostAccumulator()
        while self._pending or self._open_rnd or self._open_seq:
            if not self._reclaim_one(total):
                break
        return total

    # ------------------------------------------------------------------
    # introspection & invariants
    # ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """See :meth:`BaseFTL.metrics`: merges by kind and copy volume."""
        return {
            "switch_merges": float(self.merge_stats["switch"]),
            "partial_merges": float(self.merge_stats["partial"]),
            "full_merges": float(self.merge_stats["full"]),
            **super().metrics(),
        }

    def open_log_count(self) -> int:
        """Open log blocks across both pools."""
        return len(self._open_seq) + len(self._open_rnd)

    def pending_merge_count(self) -> int:
        """Closed log generations awaiting a deferred merge."""
        return len(self._pending)

    def check_invariants(self) -> None:
        """Verify the free pool, block conservation, pool disjointness and
        queue/index sync."""
        self._check_free_pool()
        all_logs = [
            *self._open_seq.values(),
            *self._open_rnd.values(),
            *self._pending,
        ]
        self._check_block_roles(log.pblock for log in all_logs)
        if set(self._open_seq) & set(self._open_rnd):
            raise FTLError("a logical block has open logs in both pools")
        indexed = [log for gens in self._pending_by_lblock.values() for log in gens]
        if len(indexed) != len(self._pending) or set(map(id, indexed)) != set(
            map(id, self._pending)
        ):
            raise FTLError("pending merge index out of sync with queue")
        # age order: within each block, per-block generations must appear
        # in the same order as in the global queue
        queue_position = {id(log): position for position, log in enumerate(self._pending)}
        for generations in self._pending_by_lblock.values():
            positions = [queue_position[id(log)] for log in generations]
            if positions != sorted(positions):
                raise FTLError("per-block pending generations out of age order")
        # dense page-map consistency: every logged position must lie
        # below the log's write point, and no two offsets may claim the
        # same position (each program lands exactly once)
        for log in all_logs:
            logged = log.pos_of[log.pos_of >= 0].astype(np.int64)
            if logged.size and (
                int(logged.max()) >= log.next_pos
                or np.unique(logged).size != logged.size
            ):
                raise FTLError(
                    f"log for lblock {log.lblock} has an inconsistent page map"
                )
