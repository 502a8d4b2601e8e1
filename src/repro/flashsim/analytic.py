"""Closed-form whole-run kernels (the analytic fast path).

A window of back-to-back synchronous host IOs needs no per-IO device
dispatch: with no background work and zero gaps, each IO's service time
is :meth:`TimingSpec.service_usec
<repro.flashsim.timing.TimingSpec.service_usec>` of its operation
counts — the formula ``CostAccumulator.total`` applies per IO — the
completion chain is a prefix sum and the channel horizons follow in
closed form.  The kernels in this module evaluate those on numpy
columns — one vectorized pass for a whole window — and hand the FTL
work to the FTLs' own range primitives, so they schedule that work but
restate none of it:

* :meth:`BaseFTL.locate <repro.flashsim.ftl.base.BaseFTL.locate>`,
  the non-charging read lookup, and the family's decode resolve every
  read and every read-modify-write edge of a window;
* :meth:`PageMapFTL.write_steps
  <repro.flashsim.ftl.pagemap.PageMapFTL.write_steps>` — the loop behind
  ``write_run`` — writes a page-map window's whole flattened page
  stream: closed-form host-log appends up to each GC watermark and the
  real ``write_page`` (with its collections) at it, handing back each
  watermark step so its cost lands on the IO that owns the page.

This module only evaluates; the hosts own the loops.  Its entry
points are :func:`program_stretches`, :func:`read_window`,
:func:`write_window` and :func:`run_program_queued`.  The host module's
one synchronous loop runs every synchronous program — measurements,
state enforcement and the round-robin merge of
:class:`~repro.flashsim.host.ParallelHost`'s zero-gap processes alike:
it checks the program once (:func:`program_stretches`), offers each
long stretch to :func:`read_window` or :func:`write_window` and runs
the rest through its own per-IO step.
:class:`~repro.flashsim.host.AsyncHost` tries :func:`run_program_queued`
for a whole program.

Discipline:

* a kernel either reproduces the per-IO reference path **bit for bit**
  — same maps, same counters, same floats in the same operation order —
  or it declines, with state untouched, and the host runs those IOs
  through its per-IO step;
* every decline is counted with a reason in :data:`STATS`, which is
  what the equivalence tests assert on.

Current coverage:

* **page-map FTL** (the "modern SSD" profile family) — reads of any mix
  and write windows of any length, garbage collection included
  (``epoch_windows`` counts the write passes that ran at least one
  collection);
* **block-map FTL** (USB/SD/IDE profile family) — reads in closed form;
  a write stretch declines once (``write:ftl-family``) and takes the
  host's per-IO step through ``Controller.write``, whose in-order
  appends the block-map ``write_run`` lands as one program run each
  (a closed-form dispatch around that same loop left end-to-end wall
  time unchanged);
* **queued hosts** — zero-gap programs of one mode at any queue depth
  evaluate as a vectorized event schedule (:func:`run_program_queued`):
  per-IO services come from the closed form (reads) or the page-map
  write pass (writes), and the depth-d completion chain (channel pick,
  queue occupancy integrals, completion pops) runs as a tight scalar
  event loop instead of the full per-IO dispatch machinery;
* **paced programs** (Pause, Bursts) — a stretch keeps its gaps inside
  its window (completion chain, trace columns, idle and read credit
  grants).  A read window runs while no background work is pending; a
  write window also runs the background units its gaps buy, through
  the device's own grant, between its page appends;
* **parallel hosts** — zero-gap processes run as one synchronous
  program in the event loop's round-robin order, so their stretches
  take the windows above on the same terms as any synchronous run's.

Everything else (hybrid/FAST FTL families, caches, wear levelling,
measurement noise, host overhead) declines up front, once per program,
and the synchronous host runs its loop with every window declined:
the per-IO step end to end.  So does a
:attr:`~repro.flashsim.chip.FlashChip.reference` chip — one with a
fault injector, including the never-failing
:class:`~repro.flashsim.chip.NoFaults` that builds the scalar oracle
(``program:fault-injector``).  There is no other switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from heapq import heappop, heappush
from typing import TYPE_CHECKING

import numpy as np

from repro.flashsim.chip import ERASED
from repro.flashsim.ftl.blockmap import BlockMapFTL
from repro.flashsim.ftl.pagemap import PageMapFTL
from repro.flashsim.timing import CostAccumulator

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.generator import IOProgram
    from repro.flashsim.device import FlashDevice
    from repro.flashsim.trace import IOTrace

#: shortest read/write stretch of a synchronous program worth a kernel
#: window: a window's setup (column expansion, token resolution, state
#: write-back) costs more than the per-IO path saves on shorter runs,
#: so :class:`~repro.flashsim.host.SyncHost` sends them straight to its
#: per-IO step.
#: Set from a sweep of stretch lengths on the page-map and block-map
#: families (docs/performance.md); not a tuning knob.
MIN_KERNEL_STRETCH = 16


@dataclass
class KernelStats:
    """Hit/decline counters for the analytic kernels (introspection).

    ``declines`` maps a ``"op:reason"`` string (e.g.
    ``"write:wear-levelling"``) to the number of times a kernel refused a
    window for that reason.  The counters are process-global
    observability, not device state: they never affect simulation
    results and are excluded from snapshots and fingerprints.
    """

    write_windows: int = 0
    write_ios: int = 0
    read_windows: int = 0
    read_ios: int = 0
    #: page-map write passes (write windows and queued write programs)
    #: that ran at least one garbage collection, their IOs and their
    #: collections
    epoch_windows: int = 0
    epoch_ios: int = 0
    epoch_collections: int = 0
    #: whole queued programs taken by :func:`run_program_queued`
    queued_windows: int = 0
    queued_ios: int = 0
    declines: dict[str, int] = field(default_factory=dict)

    def decline(self, reason: str) -> None:
        """Count one refused window under ``reason`` (``"op:why"``)."""
        self.declines[reason] = self.declines.get(reason, 0) + 1

    def reset(self) -> None:
        """Zero all counters (test isolation)."""
        for name in _HIT_COUNTERS:
            setattr(self, name, 0)
        self.declines = {}

    def counters(self) -> dict[str, int]:
        """Flat ``core.analytic.*`` counter sample (obs mirroring).

        Cumulative process totals, shaped like the per-layer
        ``metrics()`` samplers: hit counters plus one
        ``core.analytic.decline.<op:reason>`` counter per decline
        reason, sorted for a stable layout.
        """
        out = {f"core.analytic.{name}": getattr(self, name) for name in _HIT_COUNTERS}
        for reason in sorted(self.declines):
            out[f"core.analytic.decline.{reason}"] = self.declines[reason]
        return out


#: the hit counters of :class:`KernelStats`, in declaration order
_HIT_COUNTERS = tuple(spec.name for spec in fields(KernelStats) if spec.name != "declines")

#: module-global counters (reset freely from tests)
STATS = KernelStats()


def publish_stats(registry, baseline: dict[str, int] | None = None) -> dict[str, int]:
    """Mirror :data:`STATS` into an obs metrics registry.

    :data:`STATS` is process-global and would otherwise be silently
    lost in subprocess dispatch; callers that run kernels under an
    installed registry (cell execution, worker-side state enforcement)
    publish the counters as ``core.analytic.*`` so campaign
    ``--metrics`` aggregates kernel hit rates across all workers.

    ``baseline`` is a previous :meth:`KernelStats.counters` sample (or
    a previous return value of this function); only the delta since it
    is added, so repeated calls never double-count.  Returns the new
    baseline.
    """
    current = STATS.counters()
    for name, value in current.items():
        delta = value - (baseline.get(name, 0) if baseline else 0)
        if delta > 0:
            registry.counter(name).inc(delta)
    return current


def device_decline_reason(device: "FlashDevice") -> str | None:
    """Why this device cannot take the analytic kernels (None = it can).

    These are *configuration* preconditions — properties that cannot
    change mid-run: the FTL family, the RAM cache, latency attribution,
    measurement noise, a reference chip (fault injection), wear
    levelling and block health.

    Covered families: the page-map and block-map FTLs, the two with a
    page locator; of their writes, :func:`write_window` takes the
    page-map family's only.  The hybrid FTL has an array ``write_run``
    but no locator and no window schedule over its merges, so it
    declines (``ftl-family``) and runs per IO.
    """
    ftl = device.ftl
    if not isinstance(ftl, (PageMapFTL, BlockMapFTL)):
        return "ftl-family"
    if device.controller.cache is not None:
        return "cache"
    if device.attribution:
        return "attribution"
    if device.noise.jitter:
        return "noise"
    if device.chip.reference:
        return "fault-injector"
    if getattr(ftl.config, "wear_threshold", 0):
        return "wear-levelling"
    if device.chip.good_blocks() != device.geometry.physical_blocks:
        return "bad-blocks"
    return None


def program_stretches(
    device: "FlashDevice",
    writes: np.ndarray,
    start_at: float,
    os_overhead: float,
) -> np.ndarray | None:
    """Where each read or write stretch of a synchronous program (its
    ``writes`` column) ends, or None when no window may take any of it.

    A window never crosses a read/write flip, so the stretches are the
    runs of one mode.  The program declines as a whole — counted once
    as ``program:<reason>``, no state touched — on host overhead (each
    submission then lags the previous completion), a start off the
    busy horizon, a device-level reason (:func:`device_decline_reason`)
    or no stretch of ``MIN_KERNEL_STRETCH`` IOs.
    """
    if os_overhead != 0.0:
        reason = "os-overhead"
    elif device._busy_until != start_at:
        reason = "start-misaligned"
    else:
        reason = device_decline_reason(device)
    if reason is None:
        writes = np.asarray(writes, dtype=bool)
        ends = np.append(np.flatnonzero(writes[1:] != writes[:-1]) + 1, writes.size)
        if int(np.diff(ends, prepend=0).max()) >= MIN_KERNEL_STRETCH:
            return ends
        reason = "short-stretch"
    STATS.decline(f"program:{reason}")
    return None


def _decline(op: str, reason: str, now: float) -> tuple[int, float]:
    STATS.decline(f"{op}:{reason}")
    return 0, now


def _expand_spans(device, lbas, sizes, expand):
    """Per-IO page spans ``[s_pg, e_pg)``: controller expansion math.

    ``expand`` applies the write path's mapping-unit expansion; reads
    span exactly the touched pages.
    """
    geometry = device.geometry
    page = geometry.page_size
    if expand:
        unit = device.controller.mapping_unit
        exp_start = (lbas // unit) * unit
        exp_end = np.minimum(
            -(-(lbas + sizes) // unit) * unit, geometry.logical_bytes
        )
        s_pg = exp_start // page
        e_pg = -(-exp_end // page)
    else:
        s_pg = lbas // page
        e_pg = (lbas + sizes - 1) // page + 1
    return s_pg, e_pg


def _valid_prefix(device, lbas, sizes):
    """Length of the leading run of in-bounds IOs (the rest would raise
    ``AddressError`` in the reference path, so the kernel stops before
    them and lets the fallback raise)."""
    ok = (sizes > 0) & (lbas >= 0) & (lbas + sizes <= device.geometry.logical_bytes)
    if bool(ok.all()):
        return int(lbas.size)
    return int(np.argmin(ok))


def _map_misses(device, s_pg, e_pg):
    """Per-IO map-miss counts: the controller charges one miss whenever
    an IO's first page is not the previous IO's ``span.stop``."""
    miss = np.empty(s_pg.size, dtype=np.int64)
    last_end = device.controller._last_end_page
    miss[0] = 1 if (last_end is not None and int(s_pg[0]) != last_end) else 0
    if s_pg.size > 1:
        miss[1:] = s_pg[1:] != e_pg[:-1]
    return miss


def _chain(now, service):
    """Back-to-back completion chain from per-IO services.

    np.add.accumulate is a strict left fold (verified), bit-identical
    to the scalar ``completion = start + service`` chain.
    """
    chain = np.empty(service.size + 1, dtype=np.float64)
    chain[0] = now
    chain[1:] = service
    return np.add.accumulate(chain)[1:]


def _paced_chain(now, gaps, service):
    """Completion chain of a paced run: IO *i* starts at the previous
    completion plus its gap, clamped at 0 as the synchronous host's
    ``max(clock, scheduled)`` clamps it.

    Interleaving gaps and services keeps it one strict left fold, so
    each start is ``previous + gap`` and each completion
    ``start + service`` in the scalar loop's float order.  Returns the
    per-IO start (= submission) and completion columns.
    """
    chain = np.empty(2 * service.size + 1, dtype=np.float64)
    chain[0] = now
    chain[1::2] = np.maximum(gaps, 0.0)
    chain[2::2] = service
    chain = np.add.accumulate(chain)
    return chain[1::2], chain[2::2]


def _previous(now, completions):
    """Per-IO submission column of a zero-gap run: ``now`` for the
    first IO, the previous completion for every later one."""
    submitted = np.empty(completions.size, dtype=np.float64)
    submitted[0] = now
    submitted[1:] = completions[:-1]
    return submitted


def _occupy_channels(device, completions):
    """Round-robin channel assignment, matching per-IO ``pick()``.

    At window start every channel horizon is <= ``busy_until`` < every
    window completion, so pick() visits channels in ascending initial
    horizon (lowest index on ties — stable argsort) and then cycles:
    IO *i* lands on ``perm[i % C]``.  Each channel's final horizon is
    the completion of the last IO it served.
    """
    channels = device._channels
    busys = channels._busy
    n_ch = len(busys)
    perm = np.argsort(np.asarray(busys), kind="stable")
    n = completions.size
    for j in range(min(n_ch, n)):
        last = (n - 1) - ((n - 1 - j) % n_ch)
        channels.occupy(int(perm[j]), float(completions[last]))


def _accumulate_busy(device, service):
    """Left-fold the per-IO services into ``stats.busy_usec`` exactly
    as the per-IO ``_account`` calls would."""
    busy = device.stats.busy_usec
    for usec in service.tolist():
        busy += usec
    device.stats.busy_usec = busy


def _record(trace, row0, lbas, sizes, write, scheduled, submitted, completions, **columns):
    """Record a sync window's trace rows: each IO starts the moment it
    is submitted (one IO in flight, the device idle since the previous
    completion)."""
    trace.record_run(
        row0, lbas, sizes, write, scheduled, submitted, submitted, completions,
        bytes_transferred=sizes, **columns,
    )


def _commit_window(device, service, completions, sizes, write):
    """Device accounting of a sync window: channels, busy horizon and
    the aggregate counters."""
    _occupy_channels(device, completions)
    device._busy_until = float(completions[-1])
    _accumulate_busy(device, service)
    stats = device.stats
    if write:
        stats.writes += int(sizes.size)
        stats.bytes_written += int(sizes.sum())
    else:
        stats.reads += int(sizes.size)
        stats.bytes_read += int(sizes.sum())


def _flat_pages(s_pg, n_pg):
    """Per-IO page spans flattened into one lpage column, plus the
    column offset of each IO's first page (and the total at the end)."""
    offsets = np.empty(n_pg.size + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(n_pg, out=offsets[1:])
    lpage_flat = np.arange(int(offsets[-1]), dtype=np.int64)
    lpage_flat -= np.repeat(offsets[:-1] - s_pg, n_pg)
    return lpage_flat, offsets


def _read_tokens(device, lpage_flat):
    """Tokens and charged reads of a flat column of logical pages,
    against the current mapping, without charging anything.

    ``charged`` marks the pages :meth:`~repro.flashsim.ftl.base.BaseFTL.locate`
    finds — a flash read in the reference path — and their tokens take
    the family's decode (a block-map filler page reads ERASED but still
    charges), as in :meth:`~repro.flashsim.ftl.base.BaseFTL.read_pages`.
    """
    ftl = device.ftl
    ppages = ftl.locate(lpage_flat)
    charged = ppages >= 0
    raw = device.chip._tokens[np.where(charged, ppages, 0)]
    tokens = np.where(charged, ftl._decode_many(raw), ERASED)
    return tokens, charged


def _read_costs(device, lbas, sizes):
    """Closed-form costs of a run of reads against the current mapping:
    the read-cost preamble of :func:`read_window` and
    :func:`run_program_queued`.

    Returns per-IO page reads, map misses, service times and page span
    ends, plus how many leading IOs pass read-your-writes verification;
    the IO after them raises in the reference path.  The columns cover
    every IO, so a caller that stops at the verified prefix slices them.
    """
    s_pg, e_pg = _expand_spans(device, lbas, sizes, expand=False)
    lpage_flat, offsets = _flat_pages(s_pg, e_pg - s_pg)
    tokens, charged = _read_tokens(device, lpage_flat)
    verified = int(lbas.size)
    bad = tokens != device.controller._shadow[lpage_flat]
    if bool(bad.any()):
        first_bad_page = int(np.argmax(bad))
        verified = int(np.searchsorted(offsets, first_bad_page, side="right")) - 1
    reads = np.add.reduceat(charged.astype(np.int64), offsets[:-1])
    miss = _map_misses(device, s_pg, e_pg)
    service = device.timing.service_usec(reads, 0, 0, 0, 0, sizes, miss)
    return reads, miss, service, e_pg, verified


def _window_reason(device, write: bool, now: float) -> str | None:
    """Why a window of this mode starting at ``now`` must decline (None
    = it may run): the device preconditions, then the mode's own."""
    reason = device_decline_reason(device)
    if reason is None and write and not isinstance(device.ftl, PageMapFTL):
        reason = "ftl-family"
    if reason is None and now != device._busy_until:
        reason = "start-misaligned"
    if reason is None and not write and device.ftl.background_work_pending():
        # each read would suffer interference and feed credit grants
        # that run background units: a real state transition per IO
        reason = "background-pending"
    return reason


def write_window(
    device: "FlashDevice",
    lbas: np.ndarray,
    sizes: np.ndarray,
    now: float,
    trace: "IOTrace | None" = None,
    row0: int = 0,
    gaps: np.ndarray | None = None,
) -> tuple[int, float]:
    """Simulate a window of synchronous writes.

    ``lbas``/``sizes`` are int64 columns, the first IO submitted at
    ``now``.  Returns ``(count, end)``: ``count`` IOs were simulated
    analytically (0 = declined, state untouched) and the device fell
    idle at ``end``.  The window runs up to the first out-of-bounds IO,
    which the fallback raises on.

    Page-map devices only: a block-map write declines (``ftl-family``)
    and runs per IO through ``Controller.write``, whose in-order
    appends are one program run each.

    ``gaps`` (None = all zero) holds each IO's pause after the previous
    completion (``now`` for the first).  A gap's idle time is granted
    to the background engine as in the reference: in closed form while
    no background work is pending or the credit stays in debt, and
    through the device's own ``_grant_background`` — between the
    window's page appends — at each IO whose gap runs a collection
    (:func:`_paced_stream`).

    When ``trace`` is given, rows ``row0..row0+count-1`` are recorded
    with the synchronous host's timing columns: each IO is scheduled at
    the previous completion (``now`` for the first) plus its gap.
    """
    reason = _window_reason(device, True, now)
    if reason is not None:
        return _decline("write", reason, now)

    lbas = np.asarray(lbas, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    limit = _valid_prefix(device, lbas, sizes)
    if limit == 0:
        return _decline("write", "address", now)
    lbas, sizes = lbas[:limit], sizes[:limit]
    if gaps is not None:
        gaps = gaps[:limit] if bool(gaps[:limit].any()) else None
    columns, service, starts = _write_pass(device, lbas, sizes, now, gaps)
    if starts is None:
        completions = _chain(now, service)
        submitted = scheduled = _previous(now, completions)
    else:
        completions = starts + service
        submitted = starts
        # scheduled at the previous completion plus the raw gap (the
        # submission clamps a negative one)
        scheduled = _previous(now, completions) + gaps
    _commit_window(device, service, completions, sizes, True)
    if trace is not None:
        _record(
            trace, row0, lbas, sizes, True, scheduled, submitted, completions,
            **columns,
        )
    STATS.write_windows += 1
    STATS.write_ios += limit
    return limit, float(completions[-1])


class _PageStream:
    """A write pass's flattened page stream, handed to the FTL's
    :meth:`~repro.flashsim.ftl.pagemap.PageMapFTL.write_steps` loop up
    to a position at a time.

    Each watermark step's cost is charged to the IO whose page
    triggered it, exactly as the per-IO accumulators would.  Writing
    the stream in several pieces makes the same appends as writing it
    at once, because the loop's state (active block, write point, free
    pool) is all it reads.
    """

    def __init__(self, ftl, lpages, tokens, offsets) -> None:
        n_ios = int(offsets.size) - 1
        self.ftl = ftl
        self.lpages = lpages
        self.tokens = tokens
        self.ends = offsets[1:].tolist()
        #: pages handed to the FTL so far, and the IO the last
        #: watermark step was charged to
        self.written = 0
        self.io = 0
        self.copy_reads = np.zeros(n_ios, dtype=np.int64)
        self.copy_programs = np.zeros(n_ios, dtype=np.int64)
        self.block_erases = np.zeros(n_ios, dtype=np.int64)
        self.notes: "dict[int, list[str]]" = {}
        self._scratch = CostAccumulator()

    def advance(self, stop: int) -> None:
        """Write the stream's pages up to (not including) ``stop``."""
        start = self.written
        if stop <= start:
            return
        scratch = self._scratch
        ends = self.ends
        io = self.io
        steps = self.ftl.write_steps(
            self.lpages[start:stop], self.tokens[start:stop], scratch
        )
        for step in steps:
            while start + step >= ends[io]:
                io += 1
            self.copy_reads[io] += scratch.copy_reads
            self.copy_programs[io] += scratch.copy_programs
            self.block_erases[io] += scratch.block_erases
            scratch.copy_reads = scratch.copy_programs = scratch.block_erases = 0
            if scratch.notes:
                self.notes.setdefault(io, []).extend(scratch.notes)
                scratch.notes.clear()
        self.io = io
        self.written = stop


def _write_pass(device, lbas, sizes, now, gaps=None):
    """The page-map write pass behind every write kernel.

    Tokens, RMW edge reads and the controller's shadow commit are
    closed forms of the pre-window state, which garbage collection —
    foreground or background — preserves (a relocation moves a page
    without changing its content or mapped-ness).  The window's
    flattened page stream then goes to the FTL through one
    :class:`_PageStream`: with zero gaps in one piece, the loop
    ``write_run`` runs per IO (a concatenation of the IOs' runs makes
    the same appends and meets the same watermarks).

    With ``gaps`` the pass also folds each gap into the completion
    chain and the background credit (:func:`_paced_stream`).  Returns
    ``(columns, service, starts)``: the trace cost columns (GC notes
    included), the per-IO service times and, for a paced pass, the
    per-IO start times (None with zero gaps).  Commits the FTL, chip
    and controller state and the credit account; the caller owns the
    timing, device counters and trace rows.

    Like the reference, an exhausted free pool raises
    ``OutOfSpaceError`` mid-window with state torn at the failing page.
    """
    ftl = device.ftl
    controller = device.controller
    geometry = device.geometry
    n_ios = int(lbas.size)
    s_pg, e_pg = _expand_spans(device, lbas, sizes, expand=True)
    n_pg = e_pg - s_pg
    lpage_flat, offsets = _flat_pages(s_pg, n_pg)
    total_pages = int(offsets[-1])

    # -- resolve tokens: group repeated lpages in flat (= mint) order --
    page = geometry.page_size
    cov_lo = np.maximum(s_pg, -(-lbas // page))
    cov_hi = np.minimum(e_pg, (lbas + sizes) // page)
    covered_flat = (lpage_flat >= np.repeat(cov_lo, n_pg)) & (
        lpage_flat < np.repeat(cov_hi, n_pg)
    )
    order = np.argsort(lpage_flat, kind="stable")
    lp_sorted = lpage_flat[order]
    first_in_group = np.empty(total_pages, dtype=bool)
    first_in_group[0] = True
    first_in_group[1:] = lp_sorted[1:] != lp_sorted[:-1]
    last_in_group = np.empty(total_pages, dtype=bool)
    last_in_group[-1] = True
    last_in_group[:-1] = first_in_group[1:]

    init_token_sorted, init_mapped_sorted = _read_tokens(device, lp_sorted)
    covered_sorted = covered_flat[order]
    # an uncovered (RMW) edge reads the page's current content and
    # mints only when that content is ERASED — i.e. the lpage is
    # neither initially mapped nor written earlier in the window
    mapped_now_sorted = ~first_in_group | init_mapped_sorted
    mint_sorted = covered_sorted | ~mapped_now_sorted
    mint_flat = np.empty(total_pages, dtype=bool)
    mint_flat[order] = mint_sorted
    mint_rank = np.cumsum(mint_flat)  # 1-based rank at mint positions
    next0 = controller._next_token
    # within each group, a non-mint occurrence rereads the token of the
    # group's latest mint (or the chip's pre-window token before any)
    positions = np.arange(total_pages, dtype=np.int64)
    last_mint_pos = np.maximum.accumulate(np.where(mint_sorted, positions, -1))
    group_start_pos = np.maximum.accumulate(np.where(first_in_group, positions, -1))
    use_mint = last_mint_pos >= group_start_pos
    fresh_sorted = (mint_rank + (next0 - 1))[order]
    token_sorted = np.where(
        use_mint, fresh_sorted[np.maximum(last_mint_pos, 0)], init_token_sorted
    )
    token_flat = np.empty(total_pages, dtype=np.int64)
    token_flat[order] = token_sorted
    mapped_now_flat = np.empty(total_pages, dtype=bool)
    mapped_now_flat[order] = mapped_now_sorted
    reads_per_io = np.add.reduceat(
        (~covered_flat & mapped_now_flat).astype(np.int64), offsets[:-1]
    )
    miss = _map_misses(device, s_pg, e_pg)

    # -- host appends and collections: the FTL's own loop --------------
    stream = _PageStream(ftl, lpage_flat, token_flat, offsets)
    collections0 = ftl.gc_collections
    columns = {
        "page_reads": reads_per_io, "page_programs": n_pg,
        "copy_reads": stream.copy_reads, "copy_programs": stream.copy_programs,
        "block_erases": stream.block_erases, "map_misses": miss,
    }
    starts = None
    if gaps is None:
        stream.advance(total_pages)
    else:
        starts = _paced_stream(device, stream, offsets, gaps, now, sizes, columns)
    collections = ftl.gc_collections - collections0
    columns["notes"] = stream.notes or None
    # per-IO service times: the reference formula on columns
    service = device.timing.service_usec(
        reads_per_io, n_pg, stream.copy_reads, stream.copy_programs,
        stream.block_erases, sizes, miss,
    )

    # commit: host programs and reclamation already went through the
    # FTL above; RMW edge reads were resolved in closed form, and the
    # controller keeps the shadow token of every minted lpage
    device.chip.stats.page_reads += int(reads_per_io.sum())
    group_has_mint = use_mint[last_in_group]
    minted = lp_sorted[last_in_group][group_has_mint]
    controller._shadow[minted] = token_sorted[last_in_group][group_has_mint]
    controller._next_token = next0 + int(mint_rank[-1])
    controller._last_end_page = int(e_pg[-1])
    if collections:
        STATS.epoch_windows += 1
        STATS.epoch_ios += n_ios
        STATS.epoch_collections += collections
    return columns, service, starts


def _paced_stream(device, stream, offsets, gaps, now, sizes, columns):
    """Write a paced pass's page stream, granting each gap's idle time
    to the background engine in the reference's order.

    IO *i* starts at the previous completion plus its gap (clamped at
    0), and its idle grant is ``start - busy_until``: a left fold over
    gaps and services, as :func:`_paced_chain` folds them.  A grant
    runs background units only when work is pending and the credit plus
    the idle time is above 0; everywhere else it is the closed form
    ``min(credit + idle, cap)``.  At the IOs where it runs units the
    stream stops at the IO's first page, the device's own
    ``_grant_background`` runs them, and the stream resumes.

    Whether work is pending follows from the free pool and the host
    write point, read whenever the FTL ran anything but closed-form
    appends: host appends only take blocks, so the pool at each IO's
    first page is ``free - allocations``, until the next GC watermark.
    The IO holding that watermark page writes through it first, so its
    collection's cost lands in its service before the chain moves on.
    Services without a collection are the closed form of the page
    counts.  Returns the per-IO start times.
    """
    ftl = device.ftl
    config = ftl.config
    ppb = device.geometry.pages_per_block
    gc_low = config.gc_low_blocks
    # pending: a free pool below the background target (the FTL then
    # always holds data blocks to collect, and the device's own grant
    # checks again)
    target = config.bg_target_blocks if config.bg_enabled else 0
    cap = device.background.max_leftover_credit_usec
    timing = device.timing
    reads = columns["page_reads"]
    n_pg = columns["page_programs"]
    miss = columns["map_misses"]
    # no collection yet: the copy and erase terms add an exact 0.0
    svc = timing.service_usec(reads, n_pg, 0, 0, 0, sizes, miss).tolist()
    offs = offsets.tolist()
    starts = np.empty(len(svc), dtype=np.float64)
    credit = device._bg_credit

    def sync():
        free = ftl.free_blocks()
        point = device.chip.write_point(ftl._host_active)
        watermark = stream.written + max(0, (free - gc_low) * ppb - point)
        return free, point, watermark

    free, point, watermark = sync()
    previous = now
    for i, gap in enumerate(gaps.tolist()):
        start = previous + (gap if gap > 0.0 else 0.0)
        idle = start - previous
        if idle > 0.0:
            ahead = offs[i] - stream.written
            allocs = (point + ahead - 1) // ppb if ahead else 0
            if credit + idle > 0.0 and free - allocs < target:
                stream.advance(offs[i])
                device._bg_credit = credit
                device._grant_background(idle)
                credit = device._bg_credit
                free, point, watermark = sync()
            else:
                credit = min(credit + idle, cap)
        if offs[i + 1] > watermark:
            # this IO's pages reach the GC watermark: write them now so
            # the collection's cost is in its service
            stream.advance(offs[i + 1])
            one = slice(i, i + 1)
            svc[i] = float(timing.service_usec(
                reads[one], n_pg[one], stream.copy_reads[one],
                stream.copy_programs[one], stream.block_erases[one],
                sizes[one], miss[one],
            )[0])
            free, point, watermark = sync()
        starts[i] = start
        previous = start + svc[i]
    stream.advance(offs[-1])
    device._bg_credit = credit
    return starts


def read_window(
    device: "FlashDevice",
    lbas: np.ndarray,
    sizes: np.ndarray,
    now: float,
    trace: "IOTrace | None" = None,
    row0: int = 0,
    gaps: np.ndarray | None = None,
) -> tuple[int, float]:
    """Simulate a run of synchronous reads in closed form.

    Reads never change FTL state, so the whole remaining run qualifies
    at once — *unless* background work is pending (each read would then
    suffer interference and feed credit grants that advance GC: a real
    state transition per IO) or a page would fail read-your-writes
    verification (the reference path raises mid-run).  The window is
    truncated before the first verification failure so the fallback
    raises exactly where the reference would.

    ``gaps`` (None = all zero) holds each IO's pause after the previous
    completion (``now`` for the first); the window folds them into its
    completion chain, its trace columns and its credit account.

    Returns ``(count, end)`` like :func:`write_window`.
    """
    reason = _window_reason(device, False, now)
    if reason is not None:
        return _decline("read", reason, now)

    lbas = np.asarray(lbas, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    n_ios = _valid_prefix(device, lbas, sizes)
    if n_ios == 0:
        return _decline("read", "address", now)
    reads_per_io, miss, service, e_pg, verified = _read_costs(
        device, lbas[:n_ios], sizes[:n_ios]
    )
    if verified == 0:
        return _decline("read", "verify", now)
    # truncate before the IO whose verification fails; the fallback
    # replays it and raises the reference FTLError
    n_ios = min(n_ios, verified)
    lbas, sizes = lbas[:n_ios], sizes[:n_ios]
    reads_per_io, miss, service = reads_per_io[:n_ios], miss[:n_ios], service[:n_ios]
    if gaps is not None:
        gaps = gaps[:n_ios] if bool(gaps[:n_ios].any()) else None
    if gaps is None:
        completions = _chain(now, service)
        submitted = scheduled = _previous(now, completions)
    else:
        submitted, completions = _paced_chain(now, gaps, service)
        previous = _previous(now, completions)
        # scheduled at the previous completion plus the raw gap (the
        # submission clamps a negative one)
        scheduled = previous + gaps

    device.chip.stats.page_reads += int(reads_per_io.sum())
    device.controller._last_end_page = int(e_pg[n_ios - 1])

    # background credit, per IO in the reference's order: the idle
    # grant ``start - busy_until`` (a gap), then the read's grant of
    # ``service * read_concurrency``, each clamped to the leftover
    # maximum; with no work pending the grants only move the account
    concurrency = device.background.read_concurrency
    if concurrency > 0.0 or gaps is not None:
        cap = device.background.max_leftover_credit_usec
        credit = device._bg_credit
        grants = (service * concurrency).tolist()
        if gaps is None:
            for usec in grants:
                if usec > 0.0:
                    credit = min(credit + usec, cap)
        else:
            idles = (submitted - previous).tolist()
            for idle, usec in zip(idles, grants):
                if idle > 0.0:
                    credit = min(credit + idle, cap)
                if usec > 0.0:
                    credit = min(credit + usec, cap)
        device._bg_credit = credit

    _commit_window(device, service, completions, sizes, False)
    if trace is not None:
        _record(
            trace, row0, lbas, sizes, False, scheduled, submitted, completions,
            page_reads=reads_per_io, map_misses=miss,
        )
    STATS.read_windows += 1
    STATS.read_ios += n_ios
    return n_ios, float(completions[-1])


def run_program_queued(
    device: "FlashDevice",
    program: "IOProgram",
    trace: "IOTrace",
    start_at: float,
    os_overhead: float,
    depth: int,
) -> bool:
    """Evaluate :class:`~repro.flashsim.host.AsyncHost`'s depth-``d``
    completion chain for a zero-gap program of one mode as one
    vectorized event schedule.

    The per-IO service times come first, in closed form.  Reads never
    mutate FTL state, so each read's service is a pure function of the
    pre-program mapping (:func:`_read_costs`).  Writes dispatch in
    program order, and the queued schedule's idle grant is provably 0
    (each IO submits no later than the busy horizon) while writes grant
    no read time, so no background unit runs between them: their
    services come from the same page-map write pass as a synchronous
    window's (:func:`_write_pass`), garbage collection included.  The
    only sequential part left is the submit/pop event schedule itself:
    channel horizons, queue waits, occupancy integrals and the read
    credit.  Those fold in a tight scalar loop (~15 operations per IO)
    that replays the host loop, ``_dispatch`` and
    :class:`~repro.flashsim.device.CommandQueue` bookkeeping exactly,
    instead of the reference's full per-IO controller/FTL/chip
    traversal.

    Returns False — with *no* state touched — when the program shape
    disqualifies it (mixed modes, paced gaps, host overhead, a write
    program shorter than ``MIN_KERNEL_STRETCH``, IOs in flight, pending
    background work under reads, an out-of-range IO, a possible
    verification failure, or a device-level decline); the async host
    then runs its reference loop.  Trace rows land in submission order
    with final timings, identical to the reference's tag-ordered
    ``record`` rows.
    """
    if os_overhead != 0.0:
        STATS.decline("queued:os-overhead")
        return False
    count = len(program)
    if count == 0:
        STATS.decline("queued:empty")
        return False
    writes = np.asarray(program.writes, dtype=bool)
    write = bool(writes[0])
    if bool((writes != write).any()):
        STATS.decline("queued:mixed-modes")
        return False
    gaps = program.gaps
    if gaps.size and bool((gaps != 0.0).any()):
        STATS.decline("queued:paced")
        return False
    if write and count < MIN_KERNEL_STRETCH:
        STATS.decline("queued:short-stretch")
        return False
    if device._queue.in_flight:
        STATS.decline("queued:in-flight")
        return False
    reason = _window_reason(device, write, start_at)
    if reason is not None:
        STATS.decline(f"queued:{reason}")
        return False

    lbas = np.asarray(program.lbas, dtype=np.int64)
    sizes = np.asarray(program.sizes, dtype=np.int64)
    if _valid_prefix(device, lbas, sizes) != count:
        # the reference raises AddressError mid-program; leave the
        # whole program to it so the error surfaces at the exact IO
        STATS.decline("queued:address")
        return False

    if write:
        columns, service, _starts = _write_pass(device, lbas, sizes, start_at)
        concurrency = 0.0
    else:
        reads_per_io, miss, service, e_pg, verified = _read_costs(device, lbas, sizes)
        if verified != count:
            STATS.decline("queued:verify")
            return False
        columns = {"page_reads": reads_per_io, "map_misses": miss}
        device.chip.stats.page_reads += int(reads_per_io.sum())
        device.controller._last_end_page = int(e_pg[-1])
        # the read's grant only moves the credit account while no work
        # is pending
        concurrency = device.background.read_concurrency

    # -- the event schedule: replay the host's submit/pop loop ---------
    svc = service.tolist()
    channels = device._channels
    busys = list(channels._busy)
    nch = len(busys)
    queue = device._queue
    stats = device.stats
    cap = device.background.max_leftover_credit_usec
    credit = device._bg_credit
    busy_until = device._busy_until
    busy_usec = stats.busy_usec
    queue_wait = stats.queue_wait_usec
    queued_ios = 0
    last_event = queue._last_event
    depth_time = queue._depth_time
    active_time = queue._active_time
    depth_seq: list[int] = []
    submitted = np.empty(count, dtype=np.float64)
    started = np.empty(count, dtype=np.float64)
    completed = np.empty(count, dtype=np.float64)
    heap: list[tuple[float, int]] = []
    clock = start_at
    i = 0
    in_flight = 0
    while i < count or in_flight:
        if i < count and in_flight < depth:
            now_i = clock
            # ChannelSet.pick(): earliest-free channel, lowest index wins
            ch = 0
            floor = busys[0]
            for c in range(1, nch):
                if busys[c] < floor:
                    floor = busys[c]
                    ch = c
            start = floor if floor > now_i else now_i
            if start > now_i:
                queued_ios += 1
                queue_wait += start - now_i
            # the idle grant max(0, start - busy_until) is provably <= 0
            # here (now_i <= busy_until by induction)
            usec = svc[i] * concurrency
            if usec > 0.0:
                credit += usec
                if credit > cap:
                    credit = cap
            completion = start + svc[i]
            if completion > busys[ch]:
                busys[ch] = completion
            if completion > busy_until:
                busy_until = completion
            busy_usec += svc[i]
            # CommandQueue.push: _advance(submitted_at) before counting
            if now_i > last_event:
                if in_flight:
                    elapsed = now_i - last_event
                    depth_time += in_flight * elapsed
                    active_time += elapsed
                last_event = now_i
            heappush(heap, (completion, i))
            in_flight += 1
            depth_seq.append(in_flight)
            submitted[i] = now_i
            started[i] = start
            completed[i] = completion
            i += 1
        else:
            # CommandQueue.pop: _advance(peek) with the entry counted
            when, _tag = heappop(heap)
            if when > last_event:
                elapsed = when - last_event
                depth_time += in_flight * elapsed
                active_time += elapsed
                last_event = when
            in_flight -= 1
            if when > clock:
                clock = when

    # -- commit --------------------------------------------------------
    device._bg_credit = credit
    device._busy_until = busy_until
    for c in range(nch):
        channels.occupy(c, busys[c])
    stats.busy_usec = busy_usec
    if write:
        stats.writes += count
        stats.bytes_written += int(sizes.sum())
    else:
        stats.reads += count
        stats.bytes_read += int(sizes.sum())
    stats.queued_ios += queued_ios
    stats.queue_wait_usec = queue_wait
    queue._last_event = last_event
    queue._depth_time = depth_time
    queue._active_time = active_time
    at_depth = queue._at_depth
    for d in depth_seq:
        at_depth[d] = at_depth.get(d, 0) + 1
    queue._submitted += count
    queue.timeline._seq += count
    queue.timeline.clock.advance_to(last_event)

    trace.record_run(
        0, lbas, sizes, write, submitted, submitted, started, completed,
        bytes_transferred=sizes, **columns,
    )

    STATS.queued_windows += 1
    STATS.queued_ios += count
    return True
