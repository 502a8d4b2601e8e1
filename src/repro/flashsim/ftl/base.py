"""Flash translation layer (FTL) interface.

Section 2.2 of the paper: the block manager maintains maps between
logical block addresses and flash pages, trading expensive in-place
writes (with their erases) for writes onto free pages, at the price of
page reclamation later.  The exact design varies per device and is
undocumented — which is why uFLIP treats devices as black boxes.  The
simulator implements four FTL families that span the 2008 design space:

* :class:`~repro.flashsim.ftl.hybrid.HybridLogFTL` — block-mapped data
  with a pool of page-mapped *log blocks* and switch/partial/full merges
  (high-end and mid-range SSDs);
* :class:`~repro.flashsim.ftl.fast.FastFTL` — fully-shared
  arrival-ordered log blocks with full merges at reclamation (the FAST
  design point);
* :class:`~repro.flashsim.ftl.blockmap.BlockMapFTL` — strict block
  mapping with replacement blocks (USB sticks, SD cards);
* :class:`~repro.flashsim.ftl.pagemap.PageMapFTL` — fully page-mapped
  with greedy garbage collection (the "modern SSD" design).

All FTLs speak **logical pages** (the controller converts byte extents)
and record their physical work in a
:class:`~repro.flashsim.timing.CostAccumulator`; they never deal in
microseconds directly.

Every family allocates erased blocks from one FIFO pool, which
:class:`BaseFTL` owns; the three block-mapped families (hybrid, FAST,
block-map) share :class:`BlockMappedFTL`, their data-block map,
filler-padded block copies and block-role conservation check.

State is kept in two tiers (see ``docs/simulator.md``): an
authoritative core — the structures named in ``_STATE_ATTRS``, which
snapshots copy — and dense derived state (free/valid bitmaps, inverse
maps, GC buckets) that mirrors the core for vectorized scans and is
rebuilt by ``restore()`` rather than snapshotted.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from collections import OrderedDict, deque
from typing import Iterable

import numpy as np

from repro.errors import AddressError, FTLError
from repro.flashsim.bitmap import mask_from_indices
from repro.flashsim.chip import ERASED, FlashChip
from repro.flashsim.geometry import Geometry
from repro.flashsim.timing import CostAccumulator

#: token programmed into pages that exist only to pad a copied block
FILLER_TOKEN = 0

#: an empty overlay: block copies with no log pages
NO_PAGES = np.empty(0, dtype=np.int64)
NO_PAGES.flags.writeable = False

#: immutable leaf types the snapshot fast copy passes through unchanged
_SCALAR_TYPES = (int, float, complex, bool, str, bytes, frozenset, type(None))


def _copy_value(value, memo: dict):
    """Type-aware fast copy of one snapshot value.

    ndarrays copy in C, containers of scalars rebuild shallowly, and
    anything holding real objects falls back to :func:`copy.deepcopy`
    *with a shared memo*, so identity sharing between attributes (e.g.
    the hybrid FTL's pending-merge deque and its by-logical-block index
    holding the same ``_LogBlock`` objects) survives the copy.
    """
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, _SCALAR_TYPES):
        return value
    if isinstance(value, (deque, list, tuple, set)):
        if all(isinstance(item, _SCALAR_TYPES) for item in value):
            return type(value)(value)
        return copy.deepcopy(value, memo)
    if isinstance(value, (dict, OrderedDict)):
        if all(isinstance(item, _SCALAR_TYPES) for item in value.values()):
            return type(value)(value)
        return copy.deepcopy(value, memo)
    return copy.deepcopy(value, memo)


def _copy_state(state: dict) -> dict:
    """Fast copy of a whole snapshot dict (one shared deepcopy memo)."""
    memo: dict = {}
    return {name: _copy_value(value, memo) for name, value in state.items()}


class BaseFTL(ABC):
    """Abstract flash translation layer: scalar page operations
    (``read_page`` / ``write_page``), the vectorized batch contract
    (``read_pages`` / ``write_run``, behaviourally identical to the
    scalar loops) and the snapshot/restore protocol.

    Subclasses implement the two data-path operations plus the optional
    background-reclamation hooks used to reproduce the paper's Pause,
    Burst and interference effects (Sections 4.3, 5.2).

    The free-block pool is shared by every family: ``_free``, a FIFO
    deque of erased blocks (its order rotates wear and is snapshotted),
    and ``_free_map``, its membership bitmap (derived, rebuilt on
    :meth:`restore`).  Both change only through :meth:`_free_pop` and
    :meth:`_free_put`, except where a hot path pops several blocks at
    once, and :meth:`_check_free_pool` is every family's pool check.
    """

    #: Subclasses with a :meth:`locate` set this: :meth:`read_pages`
    #: then gathers through it instead of looping over :meth:`read_page`
    #: (on a :attr:`~repro.flashsim.chip.FlashChip.reference` chip it
    #: loops regardless — the behavioural contract the equivalence
    #: suites pin).
    batch_read_capable = False

    #: Names of the mutable attributes that make up a subclass's state.
    #: ``snapshot``/``restore`` deep-copy them *together* in one pass,
    #: which preserves identity sharing between attributes (e.g. the
    #: hybrid FTL's pending-merge deque and its by-logical-block index
    #: hold the same ``_LogBlock`` objects, and must keep doing so after
    #: a restore).
    _STATE_ATTRS: tuple[str, ...] = ()

    def __init__(self, geometry: Geometry, chip: FlashChip) -> None:
        self.geometry = geometry
        self.chip = chip
        self._free: deque[int] = deque(range(geometry.physical_blocks))
        self._free_map = np.ones(geometry.physical_blocks, dtype=bool)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    @abstractmethod
    def read_page(self, lpage: int, cost: CostAccumulator) -> int:
        """Read the token last written to logical page ``lpage``.

        Returns :data:`~repro.flashsim.chip.ERASED` for never-written
        pages.  Physical reads performed are recorded in ``cost``.
        """

    @abstractmethod
    def write_page(self, lpage: int, token: int, cost: CostAccumulator) -> None:
        """Write ``token`` to logical page ``lpage``.

        All induced physical work — programs, merge copies, erases — is
        recorded in ``cost``.
        """

    def read_pages(self, lpages: np.ndarray, cost: CostAccumulator) -> np.ndarray:
        """Read a run of strictly increasing logical pages (a controller
        span, so bounds need checking only at its ends), returning their
        tokens.

        The vectorized counterpart of :meth:`read_page`: same tokens,
        same recorded cost.  A ``batch_read_capable`` family (one with a
        :meth:`locate`) reads the whole batch with one lookup and one
        :meth:`FlashChip.read_many` gather of the located pages, whose
        tokens take the family's :meth:`_decode_many`; other families,
        and every family on a :attr:`~repro.flashsim.chip.FlashChip.reference`
        chip, take the page-by-page loop.
        """
        if self.chip.reference or not self.batch_read_capable:
            pages = np.asarray(lpages).tolist()
            return np.array([self.read_page(lpage, cost) for lpage in pages], dtype=np.int64)
        lpages = np.asarray(lpages, dtype=np.int64)
        n = int(lpages.size)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        self._check_lpage(int(lpages[0]))
        self._check_lpage(int(lpages[-1]))
        ppages = self.locate(lpages)
        charged = ppages >= 0
        tokens = np.full(n, ERASED, dtype=np.int64)
        count = int(charged.sum())
        if count:
            raw = self.chip.read_many(ppages[charged])
            tokens[charged] = self._decode_many(raw)
            cost.page_reads += count
        return tokens

    def _decode_many(self, raw: np.ndarray) -> np.ndarray:
        """Tokens of located pages from their raw chip contents: the raw
        tokens themselves, unless the family pads blocks with
        :data:`FILLER_TOKEN` (which reads as ERASED)."""
        return raw

    def locate(self, lpages: np.ndarray) -> np.ndarray:
        """Physical page of each logical page, charging nothing.

        The page :meth:`read_page` would read, or -1 where it charges no
        read (the page reads ERASED).  The one lookup the batch reads and
        the closed-form read kernels share; families without a
        vectorized map do not provide it.
        """
        raise NotImplementedError(f"{type(self).__name__} has no page locator")

    def write_run(
        self,
        lpages: np.ndarray,
        tokens: np.ndarray,
        cost: CostAccumulator,
        *,
        ascending: bool = False,
    ) -> None:
        """Write a batch given as parallel arrays (one host IO, one cache
        destage group or one kernel window).  Default: the
        :meth:`write_page` loop over the pairs.

        ``ascending`` promises the caller's lpages are strictly
        increasing and its tokens non-negative (the controller's always
        are), letting implementations skip distinctness/bounds/validity
        scans.  Overrides are the FTL's range primitives: the page-map
        host-log append (any batch, repeats allowed, GC at its
        watermarks), the block-map in-order replacement append and the
        hybrid log append (each run classified once, each
        logical-block segment one program run after its first page).
        Each must leave exactly the state, counters and ``cost`` of its
        own per-page path, which it takes on a
        :attr:`~repro.flashsim.chip.FlashChip.reference` chip: the
        :meth:`write_page` loop (the hybrid's with each run's stream
        class settled once).  The closed-form kernels in
        :mod:`repro.flashsim.analytic` call them over whole windows and
        restate none of their logic, so this contract is all the
        kernels' bit-identity rests on.
        """
        for lpage, token in zip(np.asarray(lpages).tolist(), np.asarray(tokens).tolist()):
            self.write_page(lpage, token, cost)

    def note_io_boundary(self, end_byte: int, cost: CostAccumulator) -> None:
        """Hook called by the controller after each host *write* IO.

        Cheap controllers with no RAM to keep write state across commands
        commit (close) their replacement block unless the IO ended on an
        internal commit boundary — the physical cause of the strikingly
        expensive small sequential writes of Figure 7.  Default: no-op.
        """

    # ------------------------------------------------------------------
    # background reclamation (default: none)
    # ------------------------------------------------------------------

    def background_work_pending(self) -> bool:
        """Whether deferred reclamation work exists (merges, GC)."""
        return False

    def do_background_unit(self) -> CostAccumulator | None:
        """Perform one unit of deferred work; return its cost, or None.

        The device layer converts the returned cost into simulated time
        and schedules it into idle gaps between host IOs.
        """
        return None

    def drain_background(self) -> CostAccumulator:
        """Run all pending background work to completion (between runs)."""
        total = CostAccumulator()
        while self.background_work_pending():
            unit = self.do_background_unit()
            if unit is None:
                break
            total.add(unit)
        return total

    def quiesce(self) -> CostAccumulator:
        """Resolve *all* deferred work, regardless of the background
        configuration (tests and power-down modelling).  Default: just
        the background queue."""
        return self.drain_background()

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Deep copy of the FTL's *authoritative* state (mapping tables,
        free pool, open logs, pending reclamation, counters).

        Derived structures — the free/valid bitmaps, inverse maps and
        GC buckets mirroring the core — are deliberately excluded; each
        family's :meth:`restore` rebuilds them, keeping snapshots small.
        The chip is snapshot separately by the device; the FTL keeps
        referring to the same :class:`FlashChip` object across restores.
        """
        if not self._STATE_ATTRS:
            raise FTLError(
                f"{type(self).__name__} declares no _STATE_ATTRS; it cannot "
                "participate in the snapshot/restore protocol"
            )
        return _copy_state(
            {name: getattr(self, name) for name in self._STATE_ATTRS}
        )

    def restore(self, state: dict) -> None:
        """Reset the FTL to a :meth:`snapshot` and rebuild the free
        bitmap from the restored queue.

        The state is copied again on the way in, so one snapshot can be
        restored any number of times without aliasing live structures.
        """
        for name, value in _copy_state(state).items():
            setattr(self, name, value)
        self._free_map = mask_from_indices(self._free, self.geometry.physical_blocks)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Cumulative reclamation counters as a flat ``name -> value`` map.

        Sampled by :meth:`FlashDevice.metrics` (under an ``ftl.`` prefix)
        at run and cell boundaries; subclasses expose whatever makes
        their reclamation behaviour interpretable (GC victims collected,
        merges by kind, copy volume).  Default: nothing.
        """
        return {}

    # ------------------------------------------------------------------
    # shared helpers / invariants
    # ------------------------------------------------------------------

    def _check_lpage(self, lpage: int) -> None:
        if not 0 <= lpage < self.geometry.logical_pages:
            raise AddressError(
                f"logical page {lpage} out of range 0..{self.geometry.logical_pages - 1}"
            )

    def free_blocks(self) -> int:
        """Number of erased, unassigned physical blocks."""
        return len(self._free)

    def _free_pop(self) -> int:
        """Take the oldest free block, keeping the bitmap in sync."""
        block = self._free.popleft()
        self._free_map[block] = False
        return block

    def _free_put(self, block: int) -> None:
        """Return an erased block to the pool, keeping the bitmap in sync."""
        self._free_map[block] = True
        self._free.append(block)

    def _recycle(self, block: int, cost: CostAccumulator) -> None:
        """Erase ``block``, charging ``cost``, and return it to the pool."""
        self.chip.erase(block)
        cost.block_erases += 1
        self._free_put(block)

    def _check_free_pool(self) -> None:
        """The free queue, its bitmap and the chip agree: the queue holds
        exactly the bitmap's blocks, once each, and every one is erased."""
        free_idx = np.fromiter(self._free, dtype=np.int64, count=len(self._free))
        if not np.array_equal(np.sort(free_idx), np.flatnonzero(self._free_map)):
            raise FTLError("free queue out of sync with the free bitmap")
        not_erased = self._free_map & ~self.chip.erased_mask()
        if not_erased.any():
            block = int(np.flatnonzero(not_erased)[0])
            raise FTLError(f"free block {block} is not erased")

    @abstractmethod
    def check_invariants(self) -> None:
        """Raise :class:`~repro.errors.FTLError` on internal inconsistency.

        Called by tests after arbitrary operation sequences; must verify
        block conservation and map consistency, starting with
        :meth:`_check_free_pool`.
        """

    # convenience used by tests and the device shadow check

    def read_token_quiet(self, lpage: int) -> int:
        """Read a logical page without recording any cost (test helper)."""
        scratch = CostAccumulator()
        return self.read_page(lpage, scratch)


class BlockMappedFTL(BaseFTL):
    """The core of the block-mapped families (hybrid, FAST, block-map).

    Logical block ``b`` lives in the physical data block
    ``_data_map[b]`` (-1 = never written) with its pages at their
    natural offsets.  Merges, gap fills and tail copies build blocks
    with :meth:`_copy_range`, which pads pages no source holds with
    :data:`FILLER_TOKEN`, so host tokens must exceed it
    (:meth:`_check_write`) and a filler page reads as ERASED
    (:meth:`_decode`).  Every copy is counted in ``merge_copy_reads``
    and ``merge_copy_programs``, which each family keeps in its
    ``_STATE_ATTRS``; :meth:`_check_block_roles` is the families' block
    conservation check.
    """

    def __init__(self, geometry: Geometry, chip: FlashChip) -> None:
        super().__init__(geometry, chip)
        self._data_map = np.full(geometry.logical_blocks, -1, dtype=np.int64)
        self.merge_copy_reads = 0
        self.merge_copy_programs = 0

    @staticmethod
    def _decode(token: int) -> int:
        """Map filler pages back to the 'never written' token."""
        return ERASED if token == FILLER_TOKEN else token

    def _decode_many(self, raw: np.ndarray) -> np.ndarray:
        """See :meth:`BaseFTL._decode_many`: filler reads as ERASED."""
        return np.where(raw == FILLER_TOKEN, ERASED, raw)

    def _set_data_block(self, lblock: int, pblock: int, cost: CostAccumulator) -> None:
        """Make ``pblock`` the data block of ``lblock``; the old data
        block, if any, is recycled (its erase charged to ``cost``)."""
        old = int(self._data_map[lblock])
        self._data_map[lblock] = pblock
        if old >= 0:
            self._recycle(old, cost)

    def _check_write(self, lpage: int, token: int) -> None:
        """Refuse an out-of-range page or a token the filler would shadow."""
        self._check_lpage(lpage)
        if token <= FILLER_TOKEN:
            raise FTLError(f"host tokens must be > {FILLER_TOKEN}, got {token}")

    def _copy_range(
        self,
        target: int,
        start: int,
        stop: int,
        base: int,
        offsets: np.ndarray,
        ppages: np.ndarray,
        cost: CostAccumulator,
    ) -> None:
        """Copy pages ``start..stop-1`` of a logical block into ``target``
        with :meth:`FlashChip.copy_range` (the old block ``base`` at its
        natural offsets, overlaid by the log pages ``ppages`` at
        ``offsets``, padded with :data:`FILLER_TOKEN`), charging copy
        reads and programs to ``cost`` and to the merge copy counters.

        The charge is the chip's own counter delta, taken even when the
        copy raises part-way, so a failed copy charges exactly the pages
        it got through — as the per-page merge loops did.
        """
        stats = self.chip.stats
        reads, programs = stats.page_reads, stats.page_programs
        try:
            self.chip.copy_range(
                target, start, stop, base, offsets, ppages, FILLER_TOKEN
            )
        finally:
            reads = stats.page_reads - reads
            programs = stats.page_programs - programs
            cost.copy_reads += reads
            cost.copy_programs += programs
            self.merge_copy_reads += reads
            self.merge_copy_programs += programs

    def metrics(self) -> dict[str, float]:
        """See :meth:`BaseFTL.metrics`: merge copy volume (chip pages)."""
        return {
            "merge_copy_reads": float(self.merge_copy_reads),
            "merge_copy_programs": float(self.merge_copy_programs),
        }

    def _check_block_roles(self, logs: Iterable[int]) -> None:
        """Every physical block has exactly one role: free, one logical
        block's data block, or one of ``logs`` (the family's log or
        replacement blocks) — one claim count over the free bitmap, the
        data map and the logs."""
        nblocks = self.geometry.physical_blocks
        claims = self._free_map.astype(np.int64)
        np.add.at(claims, self._data_map[self._data_map >= 0], 1)
        np.add.at(claims, np.fromiter(logs, dtype=np.int64), 1)
        doubled = np.flatnonzero(claims > 1)
        if doubled.size:
            raise FTLError(f"physical block {int(doubled[0])} has two roles")
        claimed = int(np.count_nonzero(claims))
        if claimed != nblocks:
            raise FTLError(
                f"block conservation violated: {claimed} of "
                f"{nblocks} physical blocks accounted for"
            )


__all__ = ["BaseFTL", "BlockMappedFTL", "ERASED", "FILLER_TOKEN"]
