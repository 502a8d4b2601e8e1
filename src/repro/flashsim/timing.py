"""Timing model for simulated flash devices.

Response time of a host IO decomposes into (Section 2 of the paper):

* a per-IO *controller overhead* — command decode, FTL map lookup, host
  interface latency (USB vs IDE vs SATA differ wildly here);
* *bus transfer* time proportional to the number of bytes moved;
* the *flash operation* times proper: page read, page program, block
  erase, with SLC chips faster than MLC;
* optional *map-miss* penalties when the direct map does not fit in
  controller RAM (Section 2.2).

:class:`TimingSpec` is a frozen value object; :class:`CostAccumulator`
is the mutable tally the FTL/controller use while servicing one IO.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.units import KIB, MSEC, USEC


@dataclass(frozen=True)
class TimingSpec:
    """Latency parameters of one device, all in microseconds.

    ``transfer_per_kib`` covers the external interconnect plus the chip
    bus (serialised, as on a single-channel controller).  The internal
    parallelism is described by integer ``channels`` (independent flash
    buses the controller can dispatch on) times ``planes`` (planes
    exploited per channel).  ``parallelism`` — the effective number of
    flash operations overlapped within *one* IO — is kept as a derived
    alias equal to ``channels * planes``: every cost formula divides by
    it exactly as before, so single-IO service times are unchanged.
    Queued IOs additionally overlap *across* channels; that occupancy
    tracking lives in the device's command queue, not here.

    Either specify ``parallelism`` (legacy; ``channels`` is derived as
    ``parallelism // planes``, which requires an integral ratio) or
    specify ``channels``/``planes`` explicitly and leave ``parallelism``
    at its default.
    """

    read_page: float = 25.0
    program_page: float = 220.0
    erase_block: float = 1_500.0
    transfer_per_kib: float = 20.0
    controller_overhead: float = 80.0
    map_miss: float = 0.0
    parallelism: float = 1.0
    copy_parallelism: float = 1.0
    copy_page_extra: float = 0.0
    channels: int = 0  # 0 -> derived from parallelism / planes
    planes: int = 1

    def __post_init__(self) -> None:
        if min(
            self.read_page,
            self.program_page,
            self.erase_block,
            self.transfer_per_kib,
            self.controller_overhead,
            self.map_miss,
        ) < 0 or self.copy_page_extra < 0:
            raise ValueError("timing parameters must be non-negative")
        if self.parallelism < 1.0 or self.copy_parallelism < 1.0:
            raise ValueError("parallelism must be >= 1")
        if not isinstance(self.planes, int) or self.planes < 1:
            raise ValueError("planes must be an integer >= 1")
        if not isinstance(self.channels, int) or self.channels < 0:
            raise ValueError("channels must be an integer >= 0 (0 = derived)")
        if self.channels == 0:
            derived = self.parallelism / self.planes
            if derived != int(derived) or derived < 1:
                raise ValueError(
                    f"parallelism {self.parallelism} does not decompose into "
                    f"an integral channel count at planes={self.planes}"
                )
            object.__setattr__(self, "channels", int(derived))
        else:
            effective = float(self.channels * self.planes)
            if self.parallelism not in (1.0, effective):
                raise ValueError(
                    f"parallelism {self.parallelism} conflicts with "
                    f"channels={self.channels} x planes={self.planes}"
                )
            object.__setattr__(self, "parallelism", effective)

    # -- convenience composite costs --------------------------------------

    def transfer(self, nbytes: int) -> float:
        """Bus transfer time for ``nbytes``."""
        return self.transfer_per_kib * (nbytes / KIB)

    def read_pages(self, count: int) -> float:
        """Flash time to read ``count`` pages, exploiting parallelism."""
        return self.read_page * count / self.parallelism

    def program_pages(self, count: int) -> float:
        """Flash time to program ``count`` pages, exploiting parallelism."""
        return self.program_page * count / self.parallelism

    def erase_blocks(self, count: int) -> float:
        """Flash time to erase ``count`` blocks (internal path)."""
        return self.erase_block * count / self.copy_parallelism

    def copy_pages(self, reads: int, programs: int) -> float:
        """Flash time for internal copies (merges / GC).

        Host IOs stripe across all channels (``parallelism``); internal
        block merges are confined to one or two chips
        (``copy_parallelism``) — this asymmetry is why random writes are
        so much more expensive than the raw page timings suggest.
        ``copy_page_extra`` adds per-copied-page overhead for cheap
        controllers that shuffle copyback data through their own RAM.
        """
        return (
            self.read_page * reads
            + (self.program_page + self.copy_page_extra) * programs
        ) / self.copy_parallelism

    def service_usec(
        self,
        page_reads=0,
        page_programs=0,
        copy_reads=0,
        copy_programs=0,
        block_erases=0,
        bytes_transferred=0,
        map_misses=0,
        extra_usec=0.0,
        include_overhead: bool = True,
    ):
        """Service time of one IO's operation counts, in microseconds.

        The one cost formula: :meth:`CostAccumulator.total`, latency
        attribution and the closed-form kernels all call it.  The counts
        may be Python scalars or index-aligned numpy columns (one
        service time per IO), and so may the arguments of the composite
        costs it sums; either way the additions run left to right in
        the order written here — :meth:`read_pages`,
        :meth:`program_pages`, :meth:`copy_pages`, :meth:`erase_blocks`,
        :meth:`transfer`, map misses, extra charges, then the controller
        overhead — so a column equals the per-element scalar results
        bit for bit.  A zero count adds an exact ``0.0``.
        """
        usec = (
            self.read_pages(page_reads)
            + self.program_pages(page_programs)
            + self.copy_pages(copy_reads, copy_programs)
            + self.erase_blocks(block_erases)
            + self.transfer(bytes_transferred)
            + map_misses * self.map_miss
            + extra_usec
        )
        if include_overhead:
            usec = usec + self.controller_overhead
        return usec


# SLC chips: ~25us read, ~220us program, ~1.5ms erase (datasheet-typical
# for the 2008 era).  MLC chips: slower on every axis, much slower program.
SLC_TIMING = TimingSpec(
    read_page=25.0,
    program_page=220.0,
    erase_block=1_500.0,
)

MLC_TIMING = TimingSpec(
    read_page=60.0,
    program_page=800.0,
    erase_block=2_500.0,
)


@dataclass(slots=True)
class CostAccumulator:
    """Mutable tally of the flash work done to service one host IO.

    The FTL records raw operation *counts*; :meth:`total` converts them to
    microseconds with a :class:`TimingSpec`.  Keeping counts (rather than
    accumulating time directly) makes FTL unit tests independent of the
    timing calibration and lets traces expose the physical work performed.
    """

    page_reads: int = 0
    page_programs: int = 0
    copy_reads: int = 0
    copy_programs: int = 0
    block_erases: int = 0
    bytes_transferred: int = 0
    map_misses: int = 0
    extra_usec: float = 0.0
    notes: list[str] = field(default_factory=list)
    #: provenance ledger: ``None`` (the default) disables scope tracking
    #: entirely; a list makes :meth:`begin_scope` hand out fresh
    #: sub-accumulators whose totals are folded back with a ``(tag, sub)``
    #: entry here.  Excluded from equality — it is observability, not work.
    scopes: list | None = field(default=None, compare=False, repr=False)
    #: per-IO latency decomposition attached by the device while its
    #: ``attribution`` switch is on: ``(channel, component_usec...)``
    #: integers in :data:`repro.flashsim.recorder.COMPONENTS` order.
    attribution: tuple | None = field(default=None, compare=False, repr=False)

    def add(self, other: "CostAccumulator") -> None:
        """Fold another accumulator into this one."""
        self.page_reads += other.page_reads
        self.page_programs += other.page_programs
        self.copy_reads += other.copy_reads
        self.copy_programs += other.copy_programs
        self.block_erases += other.block_erases
        self.bytes_transferred += other.bytes_transferred
        self.map_misses += other.map_misses
        self.extra_usec += other.extra_usec
        self.notes.extend(other.notes)

    def note(self, tag: str) -> None:
        """Record a qualitative event (e.g. ``"full-merge"``) for traces."""
        self.notes.append(tag)

    # -- provenance scopes (the attribution channel) ---

    def begin_scope(self) -> "CostAccumulator":
        """Open a provenance scope for a unit of internal work.

        With tracking disabled (``scopes is None``, the default) this
        returns ``self`` and the caller's accounting is unchanged — one
        attribute check is the whole hot-path cost.  With tracking
        enabled it returns a fresh tracking sub-accumulator; the caller
        tallies into it and closes with :meth:`end_scope`, which folds
        the totals back so ``total()`` is identical either way.
        """
        if self.scopes is None:
            return self
        sub = CostAccumulator()
        sub.scopes = []
        return sub

    def end_scope(self, tag: str, sub: "CostAccumulator") -> None:
        """Close a scope opened with :meth:`begin_scope`.

        ``tag`` names the component the scope's *exclusive* work is
        attributed to (``"gc"``, ``"merge"``, ``"wear"``, ``"cache"``);
        nested scopes keep their own tags.  A no-op when tracking is
        disabled (``sub is self``).
        """
        if sub is self:
            return
        self.add(sub)
        self.scopes.append((tag, sub))

    def total(self, timing: TimingSpec, include_overhead: bool = True) -> float:
        """Total service time in microseconds under ``timing``
        (:meth:`TimingSpec.service_usec` of the counts)."""
        return timing.service_usec(
            self.page_reads,
            self.page_programs,
            self.copy_reads,
            self.copy_programs,
            self.block_erases,
            self.bytes_transferred,
            self.map_misses,
            self.extra_usec,
            include_overhead,
        )

    def is_empty(self) -> bool:
        """True when no physical work at all was recorded."""
        return (
            self.page_reads == 0
            and self.page_programs == 0
            and self.copy_reads == 0
            and self.copy_programs == 0
            and self.block_erases == 0
            and self.bytes_transferred == 0
            and self.map_misses == 0
            and self.extra_usec == 0.0
        )


__all__ = [
    "TimingSpec",
    "CostAccumulator",
    "SLC_TIMING",
    "MLC_TIMING",
    "USEC",
    "MSEC",
]
