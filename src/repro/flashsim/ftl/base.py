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
from typing import Sequence

import numpy as np

from repro.errors import AddressError, FTLError
from repro.flashsim.chip import ERASED, FlashChip
from repro.flashsim.geometry import Geometry
from repro.flashsim.timing import CostAccumulator

#: token programmed into pages that exist only to pad a copied block
FILLER_TOKEN = 0

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
    """

    #: Subclasses that override :meth:`read_pages` / :meth:`write_run`
    #: with real array implementations set these; the controller only
    #: builds batch arrays for capable FTLs (for the rest, the default
    #: delegation would just add overhead on top of the scalar loop).
    batch_read_capable = False
    batch_write_capable = False

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
        #: when False, batch-capable subclasses route ``read_pages`` /
        #: ``write_run`` through the scalar per-page reference path —
        #: the behavioural contract the equivalence suite pins.
        self.batch_enabled = True

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

    def read_pages(
        self,
        lpages: np.ndarray,
        cost: CostAccumulator,
        *,
        ascending: bool = False,
    ) -> np.ndarray:
        """Read a batch of logical pages, returning their tokens.

        The vectorized counterpart of :meth:`read_page`: same tokens,
        same recorded cost.  Default: page-by-page reference loop;
        batch-capable FTLs override it with array operations.
        ``ascending`` promises strictly increasing lpages (bounds checks
        then only need the endpoints).
        """
        out = np.empty(len(lpages), dtype=np.int64)
        for i, lpage in enumerate(lpages):
            out[i] = self.read_page(int(lpage), cost)
        return out

    def write_pages(
        self, items: "Sequence[tuple[int, int]]", cost: CostAccumulator
    ) -> None:
        """Write a batch of ``(lpage, token)`` pairs.

        The batch corresponds to one host IO or one cache destage group,
        so FTLs that classify write *runs* (sequential stream vs random,
        as 2008-era hybrid controllers did) can see whole runs instead
        of single pages.  Default: page-by-page.
        """
        for lpage, token in items:
            self.write_page(lpage, token, cost)

    def write_run(
        self,
        lpages: np.ndarray,
        tokens: np.ndarray,
        cost: CostAccumulator,
        *,
        ascending: bool = False,
    ) -> None:
        """Vectorized :meth:`write_pages` contract: parallel arrays.

        Must be behaviourally identical to the pair-list form — the
        default materialises the pairs and delegates, so FTLs that
        classify runs (hybrid) or batch internally (page map) both see
        their usual entry point.  ``ascending`` promises the caller's
        lpages are strictly increasing and its tokens non-negative (the
        controller's always are), letting implementations skip
        distinctness/bounds/validity scans.

        This behavioural contract is also what the closed-form kernels
        in :mod:`repro.flashsim.analytic` rely on: they either replay
        an FTL's reference loop exactly (page-map GC epochs, block-map
        windows) or decline with state untouched, so any FTL whose
        write path diverges from its own scalar loop breaks the
        kernels' bit-identity proof, not just this method's contract.
        """
        self.write_pages(
            list(zip((int(p) for p in lpages), (int(t) for t in tokens))), cost
        )

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
        """Reset the FTL to a :meth:`snapshot`.

        The state is copied again on the way in, so one snapshot can be
        restored any number of times without aliasing live structures.
        """
        for name, value in _copy_state(state).items():
            setattr(self, name, value)

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

    @abstractmethod
    def free_blocks(self) -> int:
        """Number of erased, unassigned physical blocks."""

    @abstractmethod
    def check_invariants(self) -> None:
        """Raise :class:`~repro.errors.FTLError` on internal inconsistency.

        Called by tests after arbitrary operation sequences; must verify
        block conservation and map consistency.
        """

    def _copy_pages(
        self, sources: np.ndarray, target: int, start: int, cost: CostAccumulator
    ) -> None:
        """Copy physical pages into ``target`` from page ``start`` with
        :meth:`FlashChip.copy_pages` (negative sources pad with
        :data:`FILLER_TOKEN`), charging copy reads and programs to
        ``cost`` and to :meth:`_count_copies`.

        The charge is the chip's own counter delta, taken even when the
        copy raises part-way, so a failed copy charges exactly the pages
        it got through — as the per-page merge loops did.
        """
        stats = self.chip.stats
        reads, programs = stats.page_reads, stats.page_programs
        try:
            self.chip.copy_pages(sources, target, start, FILLER_TOKEN)
        finally:
            reads = stats.page_reads - reads
            programs = stats.page_programs - programs
            cost.copy_reads += reads
            cost.copy_programs += programs
            self._count_copies(reads, programs)

    def _count_copies(self, reads: int, programs: int) -> None:
        """Hook for families that keep their own copy-volume counters."""

    # convenience used by tests and the device shadow check

    def read_token_quiet(self, lpage: int) -> int:
        """Read a logical page without recording any cost (test helper)."""
        scratch = CostAccumulator()
        return self.read_page(lpage, scratch)


__all__ = ["BaseFTL", "ERASED", "FILLER_TOKEN"]
