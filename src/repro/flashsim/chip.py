"""NAND flash chip model.

Implements the flash state machine of Section 2.1 of the paper:

* the basic operations are **read**, **program** and **erase** (not read
  and write);
* pages can only be programmed when erased, and only **sequentially
  within their block** (to limit program-disturb errors on NAND);
* erase works at block granularity only;
* blocks endure a bounded number of erase cycles (1e5 MLC / 1e6 SLC),
  after which they must be retired as *bad blocks*;
* chips may have two planes (even/odd blocks) usable in parallel.

The chip does not store user data bytes.  Instead each programmed page
holds an opaque integer *token* supplied by the FTL; tokens let the
device layer verify read-your-writes in tests without the memory cost of
real page contents.  Timing is *not* the chip's concern — the FTL counts
operations in a :class:`~repro.flashsim.timing.CostAccumulator` and the
device converts counts to microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np

from repro.errors import BadBlockError, EnduranceError, EraseError, ProgramError
from repro.flashsim.bitmap import pack_bits
from repro.flashsim.geometry import Geometry

#: token value of a page in the erased state
ERASED = -1

#: default endurance ratings (erase cycles per block), Section 2.1
SLC_ENDURANCE = 1_000_000
MLC_ENDURANCE = 100_000


class FaultInjector(Protocol):
    """Optional hook deciding whether a chip operation fails.

    Used by failure-injection tests; production profiles run without one.
    """

    def program_fails(self, block: int, page_offset: int) -> bool:
        """Return True to make this program operation fail."""
        ...

    def erase_fails(self, block: int) -> bool:
        """Return True to make this erase operation fail."""
        ...


class NoFaults:
    """A :class:`FaultInjector` that never fails.

    Installing one changes no simulated result, but it makes the chip a
    :attr:`FlashChip.reference` chip, and every fast path below the
    controller declines on one: the FTLs' batch reads and run paths,
    block copies, hybrid log appends and the closed-form kernels.  A
    device built with it runs the scalar per-IO reference path
    throughout — the oracle that the equivalence suites and the
    hot-path benchmark's ``/oracle`` twins compare against.
    """

    def program_fails(self, block: int, page_offset: int) -> bool:
        """Never fail a program."""
        return False

    def erase_fails(self, block: int) -> bool:
        """Never fail an erase."""
        return False


@dataclass
class ChipStats:
    """Cumulative operation counters for one chip."""

    page_reads: int = 0
    page_programs: int = 0
    block_erases: int = 0
    program_failures: int = 0
    erase_failures: int = 0


class FlashChip:
    """One simulated NAND chip (or chip array) behind a controller.

    Parameters
    ----------
    geometry:
        Shared :class:`Geometry`; the chip provides ``geometry.physical_blocks``
        erase blocks.
    endurance:
        Erase cycles per block before the block wears out.
    fault_injector:
        Optional :class:`FaultInjector` for failure testing.  Its
        presence alone makes the chip a :attr:`reference` chip.
    """

    def __init__(
        self,
        geometry: Geometry,
        endurance: int = SLC_ENDURANCE,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        if endurance <= 0:
            raise ValueError("endurance must be positive")
        self.geometry = geometry
        self.endurance = endurance
        self.fault_injector = fault_injector
        self.stats = ChipStats()
        nblocks = geometry.physical_blocks
        npages = geometry.physical_pages
        self._nblocks = nblocks
        self._ppb = geometry.pages_per_block
        # token stored in each physical page; ERASED when erased
        self._tokens = np.full(npages, ERASED, dtype=np.int64)
        # next programmable page offset within each block (0..pages_per_block)
        self._write_point = np.zeros(nblocks, dtype=np.int32)
        self._erase_count = np.zeros(nblocks, dtype=np.int64)
        self._bad = np.zeros(nblocks, dtype=bool)
        # retired blocks in ``_bad``, kept by mark_bad and restore so the
        # hot paths test one integer instead of scanning the mask
        self._bad_count = 0

    @property
    def reference(self) -> bool:
        """Whether the layers above must take their scalar reference paths.

        The one rule that selects the reference: a chip with a fault
        injector.  Injected failures must surface at the exact page,
        with the exact counters, of the per-page loop, so the FTLs'
        batch reads and writes, run programs, block copies, log appends and
        closed-form kernels all decline on such a chip.
        """
        return self.fault_injector is not None

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.geometry.physical_blocks:
            raise EraseError(
                f"block {block} out of range 0..{self.geometry.physical_blocks - 1}"
            )

    def _check_page(self, block: int, page_offset: int) -> None:
        self._check_block(block)
        if not 0 <= page_offset < self.geometry.pages_per_block:
            raise ProgramError(
                f"page offset {page_offset} out of range "
                f"0..{self.geometry.pages_per_block - 1}"
            )

    def _page_index(self, block: int, page_offset: int) -> int:
        return block * self.geometry.pages_per_block + page_offset

    # ------------------------------------------------------------------
    # the three NAND operations
    # ------------------------------------------------------------------

    def read(self, block: int, page_offset: int) -> int:
        """Read the token of a physical page (ERASED if never programmed)."""
        self._check_page(block, page_offset)
        if self._bad_count and self._bad[block]:
            raise BadBlockError(f"read from bad block {block}")
        self.stats.page_reads += 1
        return int(self._tokens[self._page_index(block, page_offset)])

    def program(self, block: int, page_offset: int, token: int) -> None:
        """Program one page with ``token``.

        Enforces NAND constraints: the page must be erased and must be
        the next page in program order within its block.
        """
        self._check_page(block, page_offset)
        if self._bad_count and self._bad[block]:
            raise BadBlockError(f"program to bad block {block}")
        if token < 0:
            raise ProgramError("tokens must be non-negative")
        write_point = int(self._write_point[block])
        if page_offset != write_point:
            raise ProgramError(
                f"out-of-order program in block {block}: page {page_offset} "
                f"programmed while write point is {write_point} "
                "(NAND pages must be programmed sequentially within a block)"
            )
        if self.fault_injector is not None and self.fault_injector.program_fails(
            block, page_offset
        ):
            self.stats.program_failures += 1
            self.mark_bad(block)
            raise ProgramError(f"injected program failure in block {block}")
        self._tokens[self._page_index(block, page_offset)] = token
        self._write_point[block] = write_point + 1
        self.stats.page_programs += 1

    # ------------------------------------------------------------------
    # run (batch) operations — the vectorized hot path
    # ------------------------------------------------------------------

    def read_many(self, ppages: np.ndarray) -> np.ndarray:
        """Gather-read arbitrary physical pages (one check per batch).

        ``ppages`` are global physical page indexes.  Equivalent to one
        scalar :meth:`read` per page: the same tokens come back and the
        same number of page reads is counted.
        """
        ppages = np.asarray(ppages, dtype=np.int64)
        if ppages.size == 0:
            return np.empty(0, dtype=np.int64)
        if int(ppages.min()) < 0 or int(ppages.max()) >= self.geometry.physical_pages:
            raise ProgramError("physical page index out of range in read_many")
        if self._bad_count:
            blocks = ppages // self._ppb
            if self._bad[blocks].any():
                bad = int(blocks[self._bad[blocks]][0])
                raise BadBlockError(f"read from bad block {bad}")
        self.stats.page_reads += int(ppages.size)
        return self._tokens[ppages]

    def program_run(self, block: int, start: int, tokens: np.ndarray) -> None:
        """Program consecutive pages of ``block`` with a token array.

        Enforces the same NAND constraints as scalar :meth:`program`
        (erased pages, strictly sequential program order) with one check
        per run.  On a :attr:`reference` chip the run decays to scalar
        programs so injected failures keep their exact semantics.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        n = int(tokens.size)
        if n == 0:
            self._check_block(block)
            return
        if self.reference:
            for i in range(n):
                self.program(block, start + i, int(tokens[i]))
            return
        if not 0 <= block < self.geometry.physical_blocks:
            raise EraseError(
                f"block {block} out of range 0..{self.geometry.physical_blocks - 1}"
            )
        if start < 0 or start + n > self.geometry.pages_per_block:
            raise ProgramError(
                f"run [{start}, +{n}) exceeds block {block}'s "
                f"{self.geometry.pages_per_block} pages"
            )
        if self._bad_count and self._bad[block]:
            raise BadBlockError(f"program to bad block {block}")
        # token validity (>= 0) is the caller's contract: every FTL run
        # entry point validates its token array once before programming
        write_point = int(self._write_point[block])
        if start != write_point:
            raise ProgramError(
                f"out-of-order program in block {block}: run starts at {start} "
                f"while write point is {write_point} "
                "(NAND pages must be programmed sequentially within a block)"
            )
        self._store_run(block, start, tokens)

    def _store_run(self, block: int, start: int, tokens: np.ndarray) -> None:
        """Store a validated run: tokens, write point, program count."""
        n = int(tokens.size)
        base = block * self.geometry.pages_per_block + start
        self._tokens[base : base + n] = tokens
        self._write_point[block] = start + n
        self.stats.page_programs += n

    def program_span(
        self, blocks: np.ndarray, start: int, tokens: np.ndarray
    ) -> np.ndarray:
        """Program a log append that crosses erase blocks.

        The tokens fill ``blocks[0]`` from page ``start`` to its end,
        then each following block from page 0, the last one possibly
        partly; they must be exactly that many.  Returns the global
        physical page index of every token.  Equivalent to one
        :meth:`program_run` per block, in order, but every block is
        checked before any page is programmed; on a :attr:`reference`
        chip it is exactly those runs.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        blocks = np.asarray(blocks, dtype=np.int64)
        ppb = self.geometry.pages_per_block
        n = int(tokens.size)
        last = start + n - (blocks.size - 1) * ppb  # pages into the last block
        if blocks.size == 0 or not 0 <= start < ppb or not 0 < last <= ppb:
            raise ProgramError(
                f"{n} pages from page {start} do not fill {blocks.size} block(s)"
            )
        positions = np.arange(start, start + n, dtype=np.int64)
        seq = positions // ppb
        ppages = blocks[seq] * ppb + (positions - seq * ppb)
        if self.reference:
            taken = 0
            for k, block in enumerate(blocks.tolist()):
                offset = start if k == 0 else 0
                take = min(ppb - offset, n - taken)
                self.program_run(block, offset, tokens[taken : taken + take])
                taken += take
            return ppages
        if int(blocks.min()) < 0 or int(blocks.max()) >= self.geometry.physical_blocks:
            raise EraseError(
                f"block out of range 0..{self.geometry.physical_blocks - 1}"
            )
        if self._bad_count and self._bad[blocks].any():
            bad = int(blocks[self._bad[blocks]][0])
            raise BadBlockError(f"program to bad block {bad}")
        write_points = self._write_point[blocks]
        if int(write_points[0]) != start or write_points[1:].any():
            raise ProgramError(
                "out-of-order program: a span must start at its first block's "
                "write point and continue into erased blocks "
                "(NAND pages must be programmed sequentially within a block)"
            )
        self._tokens[ppages] = tokens
        self._write_point[blocks[:-1]] = ppb
        self._write_point[blocks[-1]] = last
        self.stats.page_programs += n
        return ppages

    def copy_range(
        self,
        target: int,
        start: int,
        stop: int,
        base: int,
        offsets: np.ndarray,
        ppages: np.ndarray,
        filler: int,
    ) -> int:
        """Program pages ``start..stop-1`` of ``target`` as a block-range copy.

        The one copy primitive of the merge-based FTLs: a merge, a gap
        fill or a replacement's tail copy always moves a page range of
        one old block at its natural offsets, overlaid by a few
        scattered log pages, with filler elsewhere.  Target page ``i``
        takes the token of physical page ``ppages[k]`` where
        ``offsets[k] == i`` (the overlay), else of page ``i`` of
        ``base`` if that lies below ``base``'s write point, else
        ``filler`` without a read.  ``base`` -1 means no old block.
        Returns the number of page reads.

        The overlay is the caller's contract, as token validity is
        :meth:`program_run`'s: ``offsets`` strictly increasing inside
        ``[start, stop)``, every page in ``ppages`` a programmed page
        (below its block's write point) outside ``target``.

        On a plain chip the copy is checked once and costs one slice of
        the base block, one overlay gather and one store, with the
        counters of the per-page loop.  On a :attr:`reference` chip, on
        one with any retired block, or when the copy would raise (target
        out of range, not writable at ``start``, or the range past its
        end), it runs :meth:`copy_pages`, the scalar per-page loop, over
        the same sources, so exceptions surface at the same page with
        the same counters.
        """
        n = stop - start
        if n <= 0:
            return 0
        ppb = self._ppb
        base_end = start  # base pages copied: [start, base_end)
        if base >= 0:
            if base >= self._nblocks:
                self._check_block(base)
            base_end = min(max(int(self._write_point[base]), start), stop)
        if (
            self.fault_injector is None
            and not self._bad_count
            and 0 <= target < self._nblocks
            and target != base
            and 0 <= start
            and stop <= ppb
            and self._write_point[target] == start
        ):
            tokens = self._tokens
            first = target * ppb
            out = tokens[first + start : first + stop]
            copied = base_end - start
            if copied:
                first = base * ppb
                out[:copied] = tokens[first + start : first + base_end]
            if base_end < stop:
                out[copied:] = filler
            reads = copied
            if offsets.size:
                out[offsets - start if start else offsets] = tokens[ppages]
                if base_end < stop:
                    reads += int(offsets.size - offsets.searchsorted(base_end))
            self._write_point[target] = stop
            self.stats.page_reads += reads
            self.stats.page_programs += n
            return reads
        sources = np.full(n, -1, dtype=np.int64)
        if base_end > start:
            sources[: base_end - start] = np.arange(
                base * ppb + start, base * ppb + base_end
            )
        sources[offsets - start] = ppages
        return self.copy_pages(sources, target, start, filler)

    def copy_pages(
        self, sources: np.ndarray, target: int, start: int, filler: int
    ) -> int:
        """The scalar per-page copy loop: the reference of :meth:`copy_range`.

        ``sources`` holds one global physical page index per target page
        (``target`` pages ``start, start+1, ...``); for each in turn the
        loop reads the source and programs the target page with its
        token.  A negative entry means "no source": that page is
        programmed with ``filler`` without a read, and so is any source
        that reads back ERASED.  Returns the number of page reads.  Each
        page goes through :meth:`read` and :meth:`program`, so an
        exception surfaces at its exact page with the counters of the
        pages before it.
        """
        ppb = self._ppb
        reads = 0
        for i, source in enumerate(np.asarray(sources, dtype=np.int64).tolist()):
            token = ERASED
            if source >= 0:
                token = self.read(*divmod(source, ppb))
                reads += 1
            self.program(target, start + i, filler if token == ERASED else token)
        return reads

    def erase(self, block: int) -> None:
        """Erase a whole block, resetting all its pages to ERASED."""
        if not 0 <= block < self._nblocks:
            self._check_block(block)
        if self._bad_count and self._bad[block]:
            raise BadBlockError(f"erase of bad block {block}")
        count = int(self._erase_count[block])
        if count >= self.endurance:
            self.mark_bad(block)
            raise EnduranceError(
                f"block {block} exceeded endurance of {self.endurance} erase cycles"
            )
        if self.fault_injector is not None and self.fault_injector.erase_fails(block):
            self.stats.erase_failures += 1
            self.mark_bad(block)
            raise EraseError(f"injected erase failure in block {block}")
        start = block * self._ppb
        self._tokens[start : start + self._ppb] = ERASED
        self._write_point[block] = 0
        self._erase_count[block] = count + 1
        self.stats.block_erases += 1

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of all mutable chip state (tokens, write points, wear
        counters, bad blocks, operation counters).

        Part of the device snapshot/restore protocol: the returned
        object is independent of the live chip, so one snapshot
        supports any number of restores.  The bad-block mask is held as
        :class:`~repro.flashsim.bitmap.PackedBits` — one bit per block
        instead of one byte.
        """
        return {
            "tokens": self._tokens.copy(),
            "write_point": self._write_point.copy(),
            "erase_count": self._erase_count.copy(),
            "bad": pack_bits(self._bad),
            "stats": replace(self.stats),
        }

    def restore(self, state: dict) -> None:
        """Reset the chip to a :meth:`snapshot`, copying the state so
        the snapshot stays reusable."""
        self._tokens = state["tokens"].copy()
        self._write_point = state["write_point"].copy()
        self._erase_count = state["erase_count"].copy()
        self._bad = state["bad"].unpack()
        self._bad_count = int(self._bad.sum())
        self.stats = replace(state["stats"])

    def update_digest(self, hasher) -> None:
        """Feed the chip's physical state into a hash (state fingerprints)."""
        for array in (self._tokens, self._write_point, self._erase_count, self._bad):
            hasher.update(array.tobytes())

    # ------------------------------------------------------------------
    # block health and introspection
    # ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Cumulative operation counters as a flat ``chip.*`` map.

        Sampled by :meth:`FlashDevice.metrics` at run and cell
        boundaries; every value is a monotonic counter, so two samples
        subtract into the physical work done between them.
        """
        return {
            "chip.page_reads": float(self.stats.page_reads),
            "chip.page_programs": float(self.stats.page_programs),
            "chip.block_erases": float(self.stats.block_erases),
            "chip.program_failures": float(self.stats.program_failures),
            "chip.erase_failures": float(self.stats.erase_failures),
        }

    def mark_bad(self, block: int) -> None:
        """Retire a block; it will reject all further operations."""
        self._check_block(block)
        if not self._bad[block]:
            self._bad[block] = True
            self._bad_count += 1

    def is_bad(self, block: int) -> bool:
        """Whether a block has been retired."""
        self._check_block(block)
        return bool(self._bad[block])

    def is_erased(self, block: int) -> bool:
        """Whether the whole block is in the erased state."""
        self._check_block(block)
        return int(self._write_point[block]) == 0

    def write_point(self, block: int) -> int:
        """Next programmable page offset within ``block``."""
        self._check_block(block)
        return int(self._write_point[block])

    def write_points(self, blocks: np.ndarray) -> np.ndarray:
        """:meth:`write_point` of every block in ``blocks`` (one gather)."""
        return self._write_point[np.asarray(blocks, dtype=np.int64)]

    def erase_count(self, block: int) -> int:
        """Erase cycles this block has endured so far."""
        self._check_block(block)
        return int(self._erase_count[block])

    def erase_counts(self) -> np.ndarray:
        """Copy of the per-block erase counters (for wear statistics)."""
        return self._erase_count.copy()

    def erased_mask(self) -> np.ndarray:
        """Boolean bitmap of fully-erased blocks (write point at 0) —
        the dense form of :meth:`is_erased` for whole-pool invariant
        checks."""
        return self._write_point == 0

    def plane_of(self, block: int) -> int:
        """Plane a block belongs to (even blocks plane 0, odd plane 1)."""
        self._check_block(block)
        return block % self.geometry.planes if self.geometry.planes > 1 else 0

    def good_blocks(self) -> int:
        """Number of blocks not (yet) retired."""
        return self._nblocks - self._bad_count

    def wear_summary(self) -> dict[str, float]:
        """Wear-levelling quality indicators across good blocks."""
        counts = self._erase_count[~self._bad]
        if counts.size == 0:
            return {"min": 0.0, "max": 0.0, "mean": 0.0, "std": 0.0}
        return {
            "min": float(counts.min()),
            "max": float(counts.max()),
            "mean": float(counts.mean()),
            "std": float(counts.std()),
        }


class ChannelSet:
    """Per-channel busy horizons for dispatch decisions.

    The controller reaches the flash array over ``count`` independent
    channels; each tracks until when it is occupied.  Dispatch always
    picks the channel that frees earliest (lowest index on ties — a
    deterministic total order, like the hosts' process scan).  One IO
    still occupies exactly one channel: the *within*-IO overlap across
    channels and planes is already folded into the
    :class:`~repro.flashsim.timing.TimingSpec` cost divisor, so the
    channel set only decides which *queued* IOs overlap each other.
    """

    __slots__ = ("_busy",)

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ValueError("a channel set needs at least one channel")
        self._busy = [0.0] * count

    def __len__(self) -> int:
        return len(self._busy)

    def pick(self) -> int:
        """The channel that frees earliest (lowest index on ties)."""
        busy = self._busy
        best = 0
        best_time = busy[0]
        for channel in range(1, len(busy)):
            if busy[channel] < best_time:
                best_time = busy[channel]
                best = channel
        return best

    def free_at(self, channel: int) -> float:
        """Until when ``channel`` is occupied."""
        return self._busy[channel]

    def occupy(self, channel: int, until: float) -> None:
        """Mark ``channel`` busy up to simulated time ``until``."""
        if until > self._busy[channel]:
            self._busy[channel] = until

    def snapshot(self) -> tuple[float, ...]:
        """Opaque copy of the per-channel horizons."""
        return tuple(self._busy)

    def restore(self, state: tuple[float, ...]) -> None:
        """Reset the horizons to a :meth:`snapshot`."""
        if len(state) != len(self._busy):
            raise ValueError(
                f"channel snapshot has {len(state)} channels, device has "
                f"{len(self._busy)}"
            )
        self._busy = list(state)
