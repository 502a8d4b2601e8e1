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

The entry points are the hosts': :class:`~repro.flashsim.host.SyncHost`
runs every synchronous program — measurements and state enforcement
alike — through :func:`run_program_into`, and
:class:`~repro.flashsim.host.AsyncHost` tries :func:`run_program_queued`.

Discipline:

* a kernel either reproduces the per-IO reference path **bit for bit**
  — same maps, same counters, same floats in the same operation order —
  or it declines, with state untouched, and the caller falls back to
  the reference per-IO loop;
* every decline is counted with a reason in :data:`STATS`, which is
  what the equivalence tests assert on.

Current coverage:

* **page-map FTL** (the "modern SSD" profile family) — reads of any mix
  and write windows of any length, garbage collection included
  (``epoch_windows`` counts the windows that ran at least one
  collection);
* **block-map FTL** (USB/SD/IDE profile family) — reads in closed form;
  a write stretch declines once (``write:ftl-family``) and runs per IO
  through ``Controller.write``, whose in-order appends the block-map
  ``write_run`` lands as one program run each (a closed-form dispatch
  around that same loop left end-to-end wall time unchanged);
* **queued hosts** — homogeneous zero-gap read programs at any queue
  depth evaluate as a vectorized event schedule
  (:func:`run_program_queued`): per-IO services come from the closed
  form, and the depth-d completion chain (channel pick, queue
  occupancy integrals, completion pops) runs as a tight scalar event
  loop instead of the full per-IO dispatch machinery.

Everything else (hybrid/FAST FTL families, caches, wear levelling,
measurement noise) declines up front, once per program, and runs the
reference path unchanged.  So does a
:attr:`~repro.flashsim.chip.FlashChip.reference` chip — one with a
fault injector, including the never-failing
:class:`~repro.flashsim.chip.NoFaults` that builds the scalar oracle
(``program:fault-injector``).  There is no other switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
#: so :func:`run_program_into` sends them straight to the per-IO path.
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
    #: write windows that ran at least one garbage collection (a subset
    #: of ``write_windows``), their IOs and their collections
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
        self.write_windows = 0
        self.write_ios = 0
        self.read_windows = 0
        self.read_ios = 0
        self.epoch_windows = 0
        self.epoch_ios = 0
        self.epoch_collections = 0
        self.queued_windows = 0
        self.queued_ios = 0
        self.declines = {}

    def counters(self) -> dict[str, int]:
        """Flat ``core.analytic.*`` counter sample (obs mirroring).

        Cumulative process totals, shaped like the per-layer
        ``metrics()`` samplers: hit counters plus one
        ``core.analytic.decline.<op:reason>`` counter per decline
        reason, sorted for a stable layout.
        """
        out = {
            "core.analytic.write_windows": self.write_windows,
            "core.analytic.write_ios": self.write_ios,
            "core.analytic.read_windows": self.read_windows,
            "core.analytic.read_ios": self.read_ios,
            "core.analytic.epoch_windows": self.epoch_windows,
            "core.analytic.epoch_ios": self.epoch_ios,
            "core.analytic.epoch_collections": self.epoch_collections,
            "core.analytic.queued_windows": self.queued_windows,
            "core.analytic.queued_ios": self.queued_ios,
        }
        for reason in sorted(self.declines):
            out[f"core.analytic.decline.{reason}"] = self.declines[reason]
        return out


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
    change mid-run: the FTL family, the RAM cache, the flight recorder,
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
    if device.recorder is not None:
        return "recorder"
    if device.noise.jitter:
        return "noise"
    if device.chip.reference:
        return "fault-injector"
    if getattr(ftl.config, "wear_threshold", 0):
        return "wear-levelling"
    if device.chip.good_blocks() != device.geometry.physical_blocks:
        return "bad-blocks"
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


def _record(trace, row0, lbas, sizes, write, now, sched0, completions, **columns):
    """Record a sync window's trace rows: each IO after the first is
    scheduled and submitted at the previous completion (a zero-gap
    program), the first at ``now`` (scheduled at ``sched0``)."""
    scheduled = np.empty(lbas.size, dtype=np.float64)
    scheduled[0] = now if sched0 is None else sched0
    scheduled[1:] = completions[:-1]
    submitted = scheduled.copy()
    submitted[0] = now
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


def write_window(
    device: "FlashDevice",
    lbas: np.ndarray,
    sizes: np.ndarray,
    now: float,
    trace: "IOTrace | None" = None,
    row0: int = 0,
    sched0: float | None = None,
) -> tuple[int, float]:
    """Simulate a window of back-to-back synchronous writes.

    ``lbas``/``sizes`` are int64 columns, the first IO submitted at
    ``now``.  Returns ``(count, end)``: ``count`` IOs were simulated
    analytically (0 = declined, state untouched) and the device fell
    idle at ``end``.  The window runs up to the first out-of-bounds IO,
    which the fallback raises on.

    Page-map devices only: a block-map write declines (``ftl-family``)
    and runs per IO through ``Controller.write``, whose in-order
    appends are one program run each.

    When ``trace`` is given, rows ``row0..row0+count-1`` are recorded
    with the synchronous host's timing columns (``sched0`` is the first
    IO's scheduled time; later IOs are scheduled at the previous
    completion, i.e. a zero-gap program).
    """
    reason = device_decline_reason(device)
    if reason is None and not isinstance(device.ftl, PageMapFTL):
        reason = "ftl-family"
    if reason is not None:
        return _decline("write", reason, now)
    if now != device._busy_until:
        return _decline("write", "start-misaligned", now)

    lbas = np.asarray(lbas, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    limit = _valid_prefix(device, lbas, sizes)
    if limit == 0:
        return _decline("write", "address", now)
    end = _pagemap_write_window(
        device, lbas[:limit], sizes[:limit], now, trace, row0, sched0
    )
    STATS.write_windows += 1
    STATS.write_ios += limit
    return limit, end


def _pagemap_write_window(device, lbas, sizes, now, trace, row0, sched0):
    """Page-map kernel: a whole write window, garbage collection included.

    Tokens, RMW edge reads and the controller's shadow commit are
    closed forms of the pre-window state, which garbage collection
    preserves (a relocation moves a page without changing its content
    or mapped-ness).  The window's flattened page stream then goes to
    the FTL in one :meth:`~repro.flashsim.ftl.pagemap.PageMapFTL.write_steps`
    loop — the one ``write_run`` runs per IO.  A concatenation of the
    IOs' runs makes the same appends and meets the same watermarks,
    because the loop's state (active block, write point, free pool) is
    all it reads.  Each watermark step's cost is charged to the IO
    whose page triggered it, exactly as the per-IO accumulators would.

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

    # -- host appends and collections: the FTL's own loop --------------
    scratch = CostAccumulator()
    copy_reads = np.zeros(n_ios, dtype=np.int64)
    copy_programs = np.zeros(n_ios, dtype=np.int64)
    block_erases = np.zeros(n_ios, dtype=np.int64)
    notes: "dict[int, list[str]]" = {}
    collections0 = ftl.gc_collections
    ends = offsets[1:].tolist()
    io = 0
    for step in ftl.write_steps(lpage_flat, token_flat, scratch):
        while step >= ends[io]:
            io += 1
        copy_reads[io] += scratch.copy_reads
        copy_programs[io] += scratch.copy_programs
        block_erases[io] += scratch.block_erases
        scratch.copy_reads = scratch.copy_programs = scratch.block_erases = 0
        if scratch.notes:
            notes.setdefault(io, []).extend(scratch.notes)
            scratch.notes.clear()
    collections = ftl.gc_collections - collections0

    # per-IO service times: the reference formula on columns
    miss = _map_misses(device, s_pg, e_pg)
    service = device.timing.service_usec(
        reads_per_io, n_pg, copy_reads, copy_programs, block_erases, sizes, miss
    )
    completions = _chain(now, service)

    # commit: host programs and reclamation already went through the
    # FTL above; RMW edge reads were resolved in closed form, and the
    # controller keeps the shadow token of every minted lpage
    device.chip.stats.page_reads += int(reads_per_io.sum())
    group_has_mint = use_mint[last_in_group]
    minted = lp_sorted[last_in_group][group_has_mint]
    controller._shadow[minted] = token_sorted[last_in_group][group_has_mint]
    controller._next_token = next0 + int(mint_rank[-1])
    controller._last_end_page = int(e_pg[-1])
    _commit_window(device, service, completions, sizes, True)
    if trace is not None:
        _record(
            trace, row0, lbas, sizes, True, now, sched0, completions,
            page_reads=reads_per_io, page_programs=n_pg, copy_reads=copy_reads,
            copy_programs=copy_programs, block_erases=block_erases,
            map_misses=miss, notes=notes or None,
        )
    if collections:
        STATS.epoch_windows += 1
        STATS.epoch_ios += n_ios
        STATS.epoch_collections += collections
    return float(completions[-1])


def read_window(
    device: "FlashDevice",
    lbas: np.ndarray,
    sizes: np.ndarray,
    now: float,
    trace: "IOTrace | None" = None,
    row0: int = 0,
    sched0: float | None = None,
) -> tuple[int, float]:
    """Simulate a run of back-to-back synchronous reads in closed form.

    Reads never change FTL state, so the whole remaining run qualifies
    at once — *unless* background work is pending (each read would then
    suffer interference and feed credit grants that advance GC: a real
    state transition per IO) or a page would fail read-your-writes
    verification (the reference path raises mid-run).  The window is
    truncated before the first verification failure so the fallback
    raises exactly where the reference would.

    Returns ``(count, end)`` like :func:`write_window`.
    """
    reason = device_decline_reason(device)
    if reason is not None:
        return _decline("read", reason, now)
    if now != device._busy_until:
        return _decline("read", "start-misaligned", now)
    ftl = device.ftl
    if ftl.background_work_pending():
        return _decline("read", "background-pending", now)

    lbas = np.asarray(lbas, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    n_ios = _valid_prefix(device, lbas, sizes)
    if n_ios == 0:
        return _decline("read", "address", now)
    lbas = lbas[:n_ios]
    sizes = sizes[:n_ios]
    reads_per_io, miss, service, e_pg, verified = _read_costs(device, lbas, sizes)
    if verified == 0:
        return _decline("read", "verify", now)
    if verified < n_ios:
        # truncate before the IO whose verification fails; the fallback
        # replays it and raises the reference FTLError
        n_ios = verified
        lbas = lbas[:n_ios]
        sizes = sizes[:n_ios]
        reads_per_io = reads_per_io[:n_ios]
        miss = miss[:n_ios]
        service = service[:n_ios]
    completions = _chain(now, service)

    # commit ----------------------------------------------------------
    device.chip.stats.page_reads += int(reads_per_io.sum())
    device.controller._last_end_page = int(e_pg[n_ios - 1])

    # background credit: each read grants service * read_concurrency,
    # clamped to the leftover maximum; with no work pending the grants
    # only move the credit account (exact scalar fold, including the
    # clamp ordering)
    concurrency = device.background.read_concurrency
    if concurrency > 0.0:
        cap = device.background.max_leftover_credit_usec
        credit = device._bg_credit
        for usec in service.tolist():
            credit += usec * concurrency
            credit = min(credit, cap)
        device._bg_credit = credit

    _commit_window(device, service, completions, sizes, False)
    if trace is not None:
        _record(
            trace, row0, lbas, sizes, False, now, sched0, completions,
            page_reads=reads_per_io, map_misses=miss,
        )

    STATS.read_windows += 1
    STATS.read_ios += n_ios
    return n_ios, float(completions[-1])


def run_program_into(
    device: "FlashDevice",
    program: "IOProgram",
    trace: "IOTrace",
    start_at: float,
    os_overhead: float,
) -> bool:
    """Run a whole :class:`~repro.core.generator.IOProgram` through the
    kernels, falling back per IO where a window declines.

    Returns False — with *no* state touched — when the program shape
    itself disqualifies (paced gaps, host overhead, queue-misaligned
    start, no read/write stretch of ``MIN_KERNEL_STRETCH`` IOs, or a
    device-level decline); the synchronous host then runs its reference
    loop.  Returns True when the program completed: every IO was
    simulated either inside a closed-form window or through the
    ordinary :meth:`~repro.flashsim.device.FlashDevice.submit_into`
    path.  The per-IO path is decided per stretch — for a stretch too
    short for a window and for a write stretch whose window declines (a
    block-map device), each counted once — and per IO at a read
    window's boundary (background work pending, verification about to
    fail), where it also re-raises exactly the reference errors.
    """
    if os_overhead != 0.0:
        STATS.decline("program:os-overhead")
        return False
    gaps = program.gaps
    if gaps.size and bool((gaps != 0.0).any()):
        STATS.decline("program:paced")
        return False
    if device._busy_until != start_at:
        STATS.decline("program:start-misaligned")
        return False
    reason = device_decline_reason(device)
    if reason is not None:
        STATS.decline(f"program:{reason}")
        return False

    lbas = program.lbas
    sizes = program.sizes
    writes = np.asarray(program.writes, dtype=bool)
    count = len(program)
    # homogeneous stretches: a window never crosses a read/write flip
    flips = np.flatnonzero(writes[1:] != writes[:-1]) + 1
    bounds = np.empty(flips.size + 1, dtype=np.int64)
    bounds[: flips.size] = flips
    bounds[-1] = count
    lengths = np.diff(bounds, prepend=0)
    if int(lengths.max()) < MIN_KERNEL_STRETCH:
        STATS.decline("program:short-stretch")
        return False

    clock = start_at
    i = 0
    end_i = 0
    per_io = False
    while i < count:
        if i >= end_i:
            end_i = int(bounds[np.searchsorted(bounds, i, side="right")])
            per_io = end_i - i < MIN_KERNEL_STRETCH
            if per_io:
                STATS.decline("program:short-stretch")
        sched0 = start_at if i == 0 else clock
        done = 0
        if not per_io:
            kernel = write_window if writes[i] else read_window
            done, clock_after = kernel(
                device, lbas[i:end_i], sizes[i:end_i], clock,
                trace=trace, row0=i, sched0=sched0,
            )
            # a write window runs to its stretch's end or to a bad
            # address, so one that declines (a block-map device, an
            # address that raises) leaves the whole rest of its stretch
            # to the per-IO path; a read window is asked again after
            # each fallback IO (pending background work may finish)
            per_io = not done and bool(writes[i])
        if done:
            i += done
            clock = clock_after
        else:
            # reference path for a per-IO stretch's IOs and for the one
            # IO a read window refused (verification raises, ...)
            clock = device.submit_into(
                trace, i, int(lbas[i]), int(sizes[i]), bool(writes[i]),
                sched0, sched0,
            )
            i += 1
    return True


def run_program_queued(
    device: "FlashDevice",
    program: "IOProgram",
    trace: "IOTrace",
    start_at: float,
    os_overhead: float,
    depth: int,
) -> bool:
    """Evaluate :class:`~repro.flashsim.host.AsyncHost`'s depth-``d``
    completion chain for a homogeneous read program as one vectorized
    event schedule.

    Reads never mutate FTL state, so every per-IO service time is a
    pure function of the pre-program mapping — resolved in closed form
    by :func:`_read_tokens` — and the only sequential part left is
    the submit/pop event schedule itself: channel horizons, queue
    waits, occupancy integrals and background credit.  Those fold in a
    tight scalar loop (~15 operations per IO) that replays the host
    loop, ``_dispatch`` and :class:`~repro.flashsim.device.CommandQueue`
    bookkeeping exactly, instead of the reference's full per-IO
    controller/FTL/chip traversal.

    Returns False — with *no* state touched — when the program shape
    disqualifies it (writes, paced gaps, host overhead, pending
    background work, a possible verification failure, or a device-level
    decline); the async host then runs its reference loop.  Trace rows
    land in submission order with final timings, identical to the
    reference's tag-sorted ``record_at`` rows.
    """
    if os_overhead != 0.0:
        STATS.decline("queued:os-overhead")
        return False
    count = len(program)
    if count == 0:
        STATS.decline("queued:empty")
        return False
    writes = np.asarray(program.writes, dtype=bool)
    if bool(writes.any()):
        STATS.decline("queued:writes")
        return False
    gaps = program.gaps
    if gaps.size and bool((gaps != 0.0).any()):
        STATS.decline("queued:paced")
        return False
    reason = device_decline_reason(device)
    if reason is not None:
        STATS.decline(f"queued:{reason}")
        return False
    if device._queue.in_flight:
        STATS.decline("queued:in-flight")
        return False
    if device._busy_until != start_at:
        STATS.decline("queued:start-misaligned")
        return False
    if device.ftl.background_work_pending():
        # each read would suffer interference and feed credit grants
        # that execute background units: real state transitions per IO
        STATS.decline("queued:background-pending")
        return False

    lbas = np.asarray(program.lbas, dtype=np.int64)
    sizes = np.asarray(program.sizes, dtype=np.int64)
    if _valid_prefix(device, lbas, sizes) != count:
        # the reference raises AddressError mid-program; leave the
        # whole program to it so the error surfaces at the exact IO
        STATS.decline("queued:address")
        return False

    reads_per_io, miss, service, e_pg, verified = _read_costs(device, lbas, sizes)
    if verified != count:
        STATS.decline("queued:verify")
        return False

    # -- the event schedule: replay the host's submit/pop loop ---------
    svc = service.tolist()
    channels = device._channels
    busys = list(channels._busy)
    nch = len(busys)
    queue = device._queue
    stats = device.stats
    concurrency = device.background.read_concurrency
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
            # here (now_i <= busy_until by induction); the service grant
            # only moves the credit account while no work is pending
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
    device.chip.stats.page_reads += int(reads_per_io.sum())
    device.controller._last_end_page = int(e_pg[-1])
    device._bg_credit = credit
    device._busy_until = busy_until
    for c in range(nch):
        channels.occupy(c, busys[c])
    stats.busy_usec = busy_usec
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
        0,
        lbas,
        sizes,
        False,
        submitted,
        submitted,
        started,
        completed,
        page_reads=reads_per_io,
        bytes_transferred=sizes,
        map_misses=miss,
    )

    STATS.queued_windows += 1
    STATS.queued_ios += count
    return True
