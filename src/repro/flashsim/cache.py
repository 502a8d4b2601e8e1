"""Controller RAM write-back cache.

High-end 2008 SSDs shipped with significant RAM (the paper notes the
Memoright carries an FPGA, 16 MB of RAM *and a condenser* — i.e. enough
residual power to destage on power loss, making genuine write-back
caching safe).  The cache is the mechanism behind three Table 3 effects:

* **Locality** — random writes confined to an area that fits in RAM are
  absorbed and destaged as dense per-block groups, costing about as much
  as sequential writes;
* **small-write absorption** (Figure 6) — four 4 KiB writes cost about
  as much as one 16 KiB write because they coalesce before touching
  flash;
* **cheap in-place writes** — repeated writes to one page overwrite in
  RAM (Samsung's x0.6 in Table 3).

Destaging picks the least-recently-used *logical block* and writes all
of its dirty pages in offset order, so a dense group reaches the FTL as
an in-order run (cheap merge) while scattered single pages force full
merges — which is exactly how wide-area random writes stay expensive.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import FTLError
from repro.flashsim.ftl.base import BaseFTL
from repro.flashsim.geometry import Geometry
from repro.flashsim.timing import CostAccumulator


class WriteBackCache:
    """Page-granular write-back cache with LRU block-group destaging.

    Parameters
    ----------
    geometry:
        Device geometry (for page/block arithmetic).
    capacity_bytes:
        RAM dedicated to dirty data.  Must hold at least one page.
    low_watermark:
        Fraction of capacity to destage *down to* once the cache fills;
        the hysteresis makes destage work arrive in bursts, which is part
        of the oscillating response times of the running phase.
    """

    def __init__(
        self,
        geometry: Geometry,
        capacity_bytes: int,
        low_watermark: float = 0.75,
    ) -> None:
        if capacity_bytes < geometry.page_size:
            raise FTLError("cache capacity must hold at least one page")
        if not 0.0 < low_watermark <= 1.0:
            raise FTLError("low_watermark must be in (0, 1]")
        self.geometry = geometry
        self.capacity_pages = capacity_bytes // geometry.page_size
        self.low_pages = max(1, int(self.capacity_pages * low_watermark))
        # LRU of logical blocks; each maps page offset -> token
        self._groups: OrderedDict[int, dict[int, int]] = OrderedDict()
        self._dirty_pages = 0
        self.hits = 0
        self.misses = 0
        self.destaged_groups = 0
        self.destaged_pages = 0

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    def write(self, lpage: int, token: int) -> bool:
        """Cache a page write; returns True on overwrite of a dirty page."""
        lblock, offset = divmod(lpage, self.geometry.pages_per_block)
        group = self._groups.get(lblock)
        if group is None:
            group = {}
            self._groups[lblock] = group
        self._groups.move_to_end(lblock)
        hit = offset in group
        if not hit:
            self._dirty_pages += 1
        else:
            self.hits += 1
        group[offset] = token
        return hit

    def read(self, lpage: int) -> int | None:
        """Token of a dirty cached page, or None on miss (no LRU touch —
        a read does not make a block a better destage candidate)."""
        lblock, offset = divmod(lpage, self.geometry.pages_per_block)
        group = self._groups.get(lblock)
        if group is None or offset not in group:
            self.misses += 1
            return None
        self.hits += 1
        return group[offset]

    def write_run(self, first: int, tokens: np.ndarray) -> None:
        """:meth:`write` of ``tokens`` to the pages from ``first`` on,
        one dict update per logical-block segment.

        Hits, dirty pages, group contents and LRU order end exactly as
        after the per-page calls in lpage order.
        """
        ppb = self.geometry.pages_per_block
        values = tokens.tolist()
        lblock, offset = divmod(first, ppb)
        i = 0
        while i < len(values):
            take = min(ppb - offset, len(values) - i)
            group = self._groups.get(lblock)
            if group is None:
                group = self._groups[lblock] = {}
            else:
                self._groups.move_to_end(lblock)
            held = len(group)
            group.update(zip(range(offset, offset + take), values[i : i + take]))
            added = len(group) - held
            self.hits += take - added
            self._dirty_pages += added
            i += take
            lblock, offset = lblock + 1, 0

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the dirty contents and counters (device snapshots)."""
        return {
            "groups": OrderedDict(
                (lblock, dict(group)) for lblock, group in self._groups.items()
            ),
            "dirty_pages": self._dirty_pages,
            "hits": self.hits,
            "misses": self.misses,
            "destaged_groups": self.destaged_groups,
            "destaged_pages": self.destaged_pages,
        }

    def restore(self, state: dict) -> None:
        """Reset the cache to a :meth:`snapshot` (copying the state)."""
        self._groups = OrderedDict(
            (lblock, dict(group)) for lblock, group in state["groups"].items()
        )
        self._dirty_pages = state["dirty_pages"]
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.destaged_groups = state["destaged_groups"]
        self.destaged_pages = state["destaged_pages"]

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Cumulative cache traffic counters as a flat ``cache.*`` map.

        Hits count dirty-page overwrites and reads served from RAM;
        destages are the eviction traffic that actually reached flash.
        """
        return {
            "cache.hits": float(self.hits),
            "cache.misses": float(self.misses),
            "cache.destaged_groups": float(self.destaged_groups),
            "cache.destaged_pages": float(self.destaged_pages),
        }

    # ------------------------------------------------------------------
    # destaging
    # ------------------------------------------------------------------

    @property
    def dirty_pages(self) -> int:
        """Number of dirty pages currently held in RAM."""
        return self._dirty_pages

    def over_capacity(self) -> bool:
        """Whether the cache holds more dirty pages than its capacity."""
        return self._dirty_pages > self.capacity_pages

    def destage_if_needed(self, ftl: BaseFTL, cost: CostAccumulator) -> int:
        """If over capacity, destage LRU block groups down to the low
        watermark.  Returns the number of pages destaged; their flash
        cost lands in ``cost`` (i.e. on the IO that pushed the cache over
        the edge — the expensive half of the oscillation)."""
        destaged = 0
        if not self.over_capacity():
            return 0
        sub = cost.begin_scope()
        while self._dirty_pages > self.low_pages and self._groups:
            destaged += self._destage_lru(ftl, sub)
        cost.end_scope("cache", sub)
        return destaged

    def _destage_lru(self, ftl: BaseFTL, cost: CostAccumulator) -> int:
        lblock, group = self._groups.popitem(last=False)
        offsets = sorted(group)
        count = len(offsets)
        lpages = np.array(offsets, dtype=np.int64)
        lpages += lblock * self.geometry.pages_per_block
        tokens = np.array([group[offset] for offset in offsets], dtype=np.int64)
        ftl.write_run(lpages, tokens, cost, ascending=True)
        self._dirty_pages -= count
        self.destaged_groups += 1
        self.destaged_pages += count
        return count

    def flush(self, ftl: BaseFTL, cost: CostAccumulator) -> int:
        """Destage everything (used between runs and by device.drain)."""
        destaged = 0
        sub = cost.begin_scope()
        while self._groups:
            destaged += self._destage_lru(ftl, sub)
        cost.end_scope("cache", sub)
        if self._dirty_pages != 0:
            raise FTLError("cache accounting error: dirty pages after flush")
        return destaged
