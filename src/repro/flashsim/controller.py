"""Device controller: the layer between the block interface and the FTL.

Responsibilities:

* split host byte extents into logical pages;
* expand writes to the device's internal **mapping unit** and perform
  read-modify-write of partially covered pages/units — the physical root
  of the Alignment micro-benchmark's penalty (Section 5.2: Samsung's
  random writes go from 18 ms aligned to 32 ms unaligned);
* route pages through the RAM :class:`~repro.flashsim.cache.WriteBackCache`
  when the device has one;
* charge the direct-map lookup penalty for non-contiguous access
  (Section 2.2: the map may not fit in controller RAM);
* maintain the *verification shadow* — the expected token of every
  logical page — so every read checks read-your-writes for free.

Every write takes one path: the span's tokens are minted as an array
(read-modify-write edges page by page, the fully covered middle as one
range) and reach the FTL as one ``write_run``, or the cache as one
``write_run`` whose destages reach the FTL as runs too.  A long read on
an uncached device is one ``read_pages`` call.  The controller never
asks which path the layers below take: the FTLs and the chip choose
between their array paths and their per-page loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AddressError, FTLError, SnapshotError
from repro.flashsim.cache import WriteBackCache
from repro.flashsim.chip import ERASED
from repro.flashsim.ftl.base import BaseFTL
from repro.flashsim.geometry import Geometry
from repro.flashsim.timing import CostAccumulator


#: minimum span (pages) for the batch *read* path: the array gather has
#: a flat ~13 us overhead while scalar reads cost ~1 us/page, so short
#: reads are faster page by page (measured crossover ≈ 14 pages on the
#: page-map FTL); not a tuning knob
BATCH_READ_MIN_PAGES = 16


@dataclass(frozen=True)
class ControllerConfig:
    """Controller tuning.

    ``mapping_unit`` (bytes, 0 = one page) is the granularity at which
    the FTL's map is maintained: writes are expanded to whole units.
    ``cache_bytes`` (0 = none) enables the RAM write-back cache.
    """

    mapping_unit: int = 0
    cache_bytes: int = 0

    def __post_init__(self) -> None:
        if self.mapping_unit < 0 or self.cache_bytes < 0:
            raise FTLError("mapping_unit and cache_bytes must be >= 0")


class Controller:
    """Splits, expands and verifies host IOs on their way to the FTL."""

    def __init__(
        self,
        geometry: Geometry,
        ftl: BaseFTL,
        config: ControllerConfig | None = None,
    ) -> None:
        self.geometry = geometry
        self.ftl = ftl
        self.config = config or ControllerConfig()
        unit = self.config.mapping_unit or geometry.page_size
        if unit % geometry.page_size != 0:
            raise FTLError(
                f"mapping_unit ({unit}) must be a multiple of the page size "
                f"({geometry.page_size})"
            )
        self.mapping_unit = unit
        self.cache: WriteBackCache | None = None
        if self.config.cache_bytes:
            self.cache = WriteBackCache(geometry, self.config.cache_bytes)
        self._shadow = np.full(geometry.logical_pages, ERASED, dtype=np.int64)
        self._next_token = 1
        self._last_end_page: int | None = None

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _check_extent(self, lba: int, size: int) -> None:
        if size <= 0:
            raise AddressError(f"IO size must be positive, got {size}")
        if not self.geometry.contains(lba, size):
            raise AddressError(
                f"extent [{lba}, +{size}) exceeds logical capacity "
                f"{self.geometry.logical_bytes}"
            )

    def _charge_map_lookup(self, first_page: int, last_page: int, cost: CostAccumulator) -> None:
        """Sequentially-contiguous access hits the cached map segment;
        a jump needs a map segment swap (Section 2.2)."""
        if self._last_end_page is not None and first_page != self._last_end_page:
            cost.map_misses += 1
        self._last_end_page = last_page + 1

    def _mint(self, lo: int, hi: int) -> np.ndarray:
        """Fresh tokens for the fully covered pages ``lo..hi-1``."""
        tokens = np.arange(self._next_token, self._next_token + hi - lo, dtype=np.int64)
        self._next_token += hi - lo
        self._shadow[lo:hi] = tokens
        return tokens

    def _read_page_token(self, lpage: int, cost: CostAccumulator) -> int:
        if self.cache is not None:
            cached = self.cache.read(lpage)
            if cached is not None:
                return cached
        return self.ftl.read_page(lpage, cost)

    def _rmw_token(self, lpage: int, cost: CostAccumulator) -> int:
        """Read-modify-write token for a partially covered page: keep the
        current content, minting a fresh token only for never-written pages."""
        token = self._read_page_token(lpage, cost)
        if token == ERASED:
            token = self._next_token
            self._next_token += 1
            self._shadow[lpage] = token
        return token

    # ------------------------------------------------------------------
    # host operations
    # ------------------------------------------------------------------

    def read(self, lba: int, size: int, cost: CostAccumulator) -> None:
        """Service a host read, verifying every page against the shadow."""
        self._check_extent(lba, size)
        span = self.geometry.page_span(lba, size)
        self._charge_map_lookup(span.start, span.stop - 1, cost)
        if self.cache is None and span.stop - span.start >= BATCH_READ_MIN_PAGES:
            lpages = np.arange(span.start, span.stop, dtype=np.int64)
            tokens = self.ftl.read_pages(lpages, cost)
            expected = self._shadow[span.start : span.stop]
            if not np.array_equal(tokens, expected):
                bad = int(np.flatnonzero(tokens != expected)[0])
                raise FTLError(
                    f"read-your-writes violation at logical page {span.start + bad}: "
                    f"device returned token {int(tokens[bad])}, "
                    f"expected {int(expected[bad])}"
                )
        else:
            for lpage in span:
                token = self._read_page_token(lpage, cost)
                if token != int(self._shadow[lpage]):
                    raise FTLError(
                        f"read-your-writes violation at logical page {lpage}: "
                        f"device returned token {token}, expected {int(self._shadow[lpage])}"
                    )
        cost.bytes_transferred += size

    def write(self, lba: int, size: int, cost: CostAccumulator) -> None:
        """Service a host write.

        The extent is expanded to mapping-unit boundaries.  Pages fully
        covered by the host data get fresh tokens; padding and partially
        covered pages are read-modify-written, preserving their token
        (i.e. their logical content).
        """
        self._check_extent(lba, size)
        unit = self.mapping_unit
        expanded_start = (lba // unit) * unit
        expanded_end = -(-(lba + size) // unit) * unit
        expanded_end = min(expanded_end, self.geometry.logical_bytes)
        span = self.geometry.page_span(expanded_start, expanded_end - expanded_start)
        self._charge_map_lookup(span.start, span.stop - 1, cost)
        page_size = self.geometry.page_size
        # Fully covered pages form one contiguous middle run: coverage
        # (lba <= page_start and page_end <= lba + size) is monotone in
        # lpage from both ends.  Partial edges are read-modify-written
        # page by page and the middle takes fresh tokens in one arange,
        # so tokens are minted in lpage order: head edge, middle, tail.
        cov_lo = max(span.start, -(-lba // page_size))
        cov_hi = min(span.stop, (lba + size) // page_size)
        if cov_lo >= cov_hi:
            cov_lo = cov_hi = span.start
        if cov_lo == span.start and cov_hi == span.stop:
            # no partial page: the fresh tokens are the run, uncopied
            tokens = self._mint(cov_lo, cov_hi)
        else:
            tokens = np.empty(span.stop - span.start, dtype=np.int64)
            for lpage in range(span.start, cov_lo):
                tokens[lpage - span.start] = self._rmw_token(lpage, cost)
            tokens[cov_lo - span.start : cov_hi - span.start] = self._mint(cov_lo, cov_hi)
            for lpage in range(cov_hi, span.stop):
                tokens[lpage - span.start] = self._rmw_token(lpage, cost)
        if self.cache is None:
            lpages = np.arange(span.start, span.stop, dtype=np.int64)
            self.ftl.write_run(lpages, tokens, cost, ascending=True)
        else:
            self.cache.write_run(span.start, tokens)
            self.cache.destage_if_needed(self.ftl, cost)
        self.ftl.note_io_boundary(lba + size, cost)
        cost.bytes_transferred += size

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the shadow, token counter, access history and cache."""
        return {
            "shadow": self._shadow.copy(),
            "next_token": self._next_token,
            "last_end_page": self._last_end_page,
            "cache": self.cache.snapshot() if self.cache is not None else None,
        }

    def restore(self, state: dict) -> None:
        """Reset the controller to a :meth:`snapshot`."""
        if (self.cache is None) != (state["cache"] is None):
            raise SnapshotError(
                "snapshot cache configuration does not match this controller"
            )
        self._shadow = state["shadow"].copy()
        self._next_token = state["next_token"]
        self._last_end_page = state["last_end_page"]
        if self.cache is not None:
            self.cache.restore(state["cache"])

    def update_digest(self, hasher) -> None:
        """Feed the logical-content shadow into a hash (fingerprints)."""
        hasher.update(self._shadow.tobytes())
        hasher.update(str(self._next_token).encode())

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Cumulative controller-layer counters (the RAM cache's, today).

        Controllers without a write-back cache contribute nothing.
        """
        if self.cache is None:
            return {}
        return self.cache.metrics()

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def flush_cache(self, cost: CostAccumulator) -> int:
        """Destage all dirty cache contents to flash."""
        if self.cache is None:
            return 0
        return self.cache.flush(self.ftl, cost)

    def reset_access_history(self) -> None:
        """Forget sequential-detection state (between runs)."""
        self._last_end_page = None

    def expected_token(self, lpage: int) -> int:
        """Shadow token of a logical page (test helper)."""
        return int(self._shadow[lpage])
