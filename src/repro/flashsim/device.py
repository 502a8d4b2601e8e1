"""The simulated flash block device.

:class:`FlashDevice` assembles chip + FTL + controller behind the block
interface the paper benchmarks: ``submit(lba, size, mode, now)``.  It
owns the conversion of physical work into simulated microseconds and the
**background reclamation engine** that turns host idle time into
deferred merges/GC — the machinery behind the paper's start-up phases
(Figure 3), Pause/Burst absorption (Table 3) and the lingering read
interference after random writes (Figure 5).

Background-time accounting: the device accumulates *credit* —
idle gaps at full rate, plus a fraction of read service time (the
controller can reclaim concurrently while streaming a read, but not
while programming host data).  Each credit window pays for whole
background units (one merge / one GC victim) at their true flash cost.
Credit left over after the queue drains is clamped so a long idle period
cannot subsidise future foreground work.
"""

from __future__ import annotations

import copy
import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.errors import AddressError, QueueError, SnapshotError
from repro.flashsim.chip import ChannelSet, FlashChip
from repro.flashsim.clock import EventTimeline
from repro.flashsim.controller import Controller
from repro.flashsim.ftl.base import BaseFTL
from repro.flashsim.geometry import Geometry
from repro.flashsim.recorder import attribute_io
from repro.flashsim.timing import CostAccumulator, TimingSpec
from repro.iotypes import CompletedIO, IORequest, Mode

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.flashsim.trace import IOTrace


@dataclass
class DeviceStats:
    """Aggregate counters over the device's lifetime."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_usec: float = 0.0
    background_units: int = 0
    background_usec: float = 0.0
    interfered_reads: int = 0
    queued_ios: int = 0
    queue_wait_usec: float = 0.0


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement jitter on service times.

    Real hosts add OS and interconnect noise on top of the device's
    deterministic cost (the paper's repeat runs agreed only within 5%).
    ``jitter`` is the relative standard deviation of a log-normal-ish
    multiplicative factor; 0 disables noise (the default — deterministic
    runs are what most tests want).  Noise is seeded per device, so a
    simulation stays reproducible.
    """

    jitter: float = 0.0
    seed: int = 12345

    def __post_init__(self) -> None:
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")


@dataclass(frozen=True)
class BackgroundPolicy:
    """How the device schedules deferred reclamation.

    ``read_concurrency`` is the fraction of read service time usable for
    background work; ``read_interference`` multiplies the response time
    of reads issued while the background queue is non-empty (Figure 5's
    lingering effect).  Devices without asynchronous reclamation keep the
    FTL's background disabled and never enter this path.
    """

    read_concurrency: float = 1.0
    read_interference: float = 1.6
    max_leftover_credit_usec: float = 2_000.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_concurrency <= 1.0:
            raise ValueError("read_concurrency must be in [0, 1]")
        if self.read_interference < 1.0:
            raise ValueError("read_interference must be >= 1")


@dataclass(slots=True)
class QueuedCompletion:
    """One in-flight (or just-completed) queued IO.

    ``tag`` is the host's submission index; completions may pop out of
    submission order, and the tag is how the host re-sorts them into
    trace rows.  ``channel`` records the dispatch decision for
    introspection; ``cost`` is the usual physical-work tally.
    """

    tag: int
    lba: int
    size: int
    write: bool
    scheduled_at: float
    submitted_at: float
    started_at: float
    completed_at: float
    channel: int
    cost: CostAccumulator


class CommandQueue:
    """NCQ-style submission/completion queue of one device.

    Holds up to ``depth`` in-flight IOs as completion events on an
    :class:`~repro.flashsim.clock.EventTimeline`; completions pop in
    ``(completed_at, submission order)`` order, so out-of-order channel
    overlap stays deterministic.  The queue also integrates
    depth-over-time occupancy counters (monotone, sampled through
    :meth:`FlashDevice.metrics`): ``depth_time_usec / active_usec`` is
    the mean in-flight depth while any IO was outstanding, and the
    ``at_depth_{d}`` counters histogram the depth seen at each
    submission.
    """

    __slots__ = (
        "depth",
        "timeline",
        "_last_event",
        "_depth_time",
        "_active_time",
        "_at_depth",
        "_submitted",
    )

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise QueueError("queue depth must be >= 1")
        self.depth = depth
        self.timeline = EventTimeline()
        self._last_event = 0.0
        self._depth_time = 0.0
        self._active_time = 0.0
        self._at_depth: dict[int, int] = {}
        self._submitted = 0

    @property
    def in_flight(self) -> int:
        """Number of submitted-but-not-popped IOs."""
        return len(self.timeline)

    def has_slot(self) -> bool:
        """Whether another IO may be submitted right now."""
        return len(self.timeline) < self.depth

    def _advance(self, when: float) -> None:
        # completions can be observed after later submissions (the host
        # pops lazily), so a backwards ``when`` is simply not integrated
        if when <= self._last_event:
            return
        pending = len(self.timeline)
        if pending:
            elapsed = when - self._last_event
            self._depth_time += pending * elapsed
            self._active_time += elapsed
        self._last_event = when

    def push(self, entry: QueuedCompletion) -> None:
        """Queue a dispatched IO until its completion is popped."""
        if not self.has_slot():
            raise QueueError(
                f"device queue full ({self.depth} IOs in flight)"
            )
        self._advance(entry.submitted_at)
        self.timeline.schedule(entry.completed_at, entry)
        pending = len(self.timeline)
        self._at_depth[pending] = self._at_depth.get(pending, 0) + 1
        self._submitted += 1

    def peek_time(self) -> float | None:
        """Completion time of the earliest pending IO (None when idle)."""
        return self.timeline.peek_time()

    def pop(self) -> QueuedCompletion:
        """Remove and return the earliest completion."""
        when = self.timeline.peek_time()
        if when is None:
            raise QueueError("no completions pending")
        self._advance(when)
        _when, entry = self.timeline.pop()
        return entry

    def metrics(self) -> dict[str, float]:
        """Monotone occupancy counters (``device.queue.*`` namespace)."""
        counts = {
            "device.queue.submitted": float(self._submitted),
            "device.queue.depth_time_usec": self._depth_time,
            "device.queue.active_usec": self._active_time,
        }
        for pending, times in self._at_depth.items():
            counts[f"device.queue.at_depth_{pending}"] = float(times)
        return counts

    def pending_digest(self) -> tuple:
        """In-flight IOs as ``(tag, completed_at)`` pairs, event order
        (part of the device fingerprint)."""
        return tuple(
            (entry.tag, when)
            for when, _seq, entry in sorted(
                self.timeline._heap, key=lambda item: item[:2]
            )
        )

    def snapshot(self) -> tuple:
        """Deep, picklable copy of the queue state."""
        return (
            copy.deepcopy(self.timeline.snapshot()),
            self._last_event,
            self._depth_time,
            self._active_time,
            dict(self._at_depth),
            self._submitted,
        )

    def restore(self, state: tuple) -> None:
        """Reset the queue to a :meth:`snapshot` (copying, so the
        snapshot stays reusable)."""
        timeline_state, last, depth_time, active, at_depth, submitted = state
        self.timeline = EventTimeline()
        self.timeline.restore(copy.deepcopy(timeline_state))
        self._last_event = last
        self._depth_time = depth_time
        self._active_time = active
        self._at_depth = dict(at_depth)
        self._submitted = submitted


class FlashDevice:
    """A black-box flash device with the paper's block interface."""

    def __init__(
        self,
        name: str,
        geometry: Geometry,
        timing: TimingSpec,
        chip: FlashChip,
        ftl: BaseFTL,
        controller: Controller,
        background: BackgroundPolicy | None = None,
        noise: NoiseSpec | None = None,
        queue_depth: int = 32,
    ) -> None:
        if queue_depth < 1:
            raise QueueError("device queue_depth must be >= 1")
        self.name = name
        self.geometry = geometry
        self.timing = timing
        self.chip = chip
        self.ftl = ftl
        self.controller = controller
        self.background = background or BackgroundPolicy()
        self.noise = noise or NoiseSpec()
        self.queue_depth = queue_depth
        self._noise_rng = random.Random(self.noise.seed)
        self.stats = DeviceStats()
        self._busy_until = 0.0
        self._bg_credit = 0.0
        self._channels = ChannelSet(timing.channels)
        self._queue = CommandQueue(queue_depth)
        #: per-IO latency attribution (observability, not state): while
        #: set, each dispatched IO's cost carries its decomposition
        #: (:mod:`repro.flashsim.recorder`), which traces keep as their
        #: ``attr_*`` columns.  It never changes timing and stays out of
        #: snapshots and fingerprints.
        self.attribution = False

    # ------------------------------------------------------------------
    # the block interface
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Logical capacity in bytes."""
        return self.geometry.logical_bytes

    def _dispatch(
        self, lba: int, size: int, write: bool, now: float, overlap: bool
    ) -> tuple[float, float, CostAccumulator, int]:
        """Dispatch one IO; returns ``(start, completion, cost, channel)``.

        The single code path behind :meth:`submit`, :meth:`submit_into`
        and :meth:`submit_async` — the operation order (channel pick,
        queueing, background grants, noise draw, accounting) is
        identical for all three, so every pipeline evolves device state
        bit-identically.

        Dispatch always picks the earliest-free channel.  ``overlap``
        decides the start floor: the synchronous paths serialise on the
        whole-device busy horizon (one IO in flight, exactly the
        pre-queue model); the async path serialises only on the chosen
        channel, which is what lets queued IOs overlap.  At queue depth
        1 the async host never submits before the previous completion,
        so both floors collapse to ``now`` and the two models agree
        bit for bit.
        """
        if not self.geometry.contains(lba, size):
            raise AddressError(
                f"IO [{lba}, +{size}) outside device capacity "
                f"{self.geometry.logical_bytes}"
            )
        channel = self._channels.pick()
        floor = self._channels.free_at(channel) if overlap else self._busy_until
        start = max(now, floor)
        if start > now:
            self.stats.queued_ios += 1
            self.stats.queue_wait_usec += start - now
        self._grant_background(max(0.0, start - self._busy_until))

        attribution = self.attribution
        cost = CostAccumulator()
        if attribution:
            cost.scopes = []  # enable provenance scopes for this IO
        interfered = False
        if not write:
            self.controller.read(lba, size, cost)
            service = service_base = cost.total(self.timing)
            if self.ftl.background_work_pending():
                service *= self.background.read_interference
                interfered = True
            self._grant_background(service * self.background.read_concurrency)
        else:
            self.controller.write(lba, size, cost)
            service = service_base = cost.total(self.timing)
        service_scaled = service
        if self.noise.jitter:
            # multiplicative measurement noise, floored so service time
            # never collapses below half its deterministic cost
            factor = self._noise_rng.gauss(1.0, self.noise.jitter)
            service *= max(0.5, factor)

        completion = start + service
        self._channels.occupy(channel, completion)
        if completion > self._busy_until:
            self._busy_until = completion
        self._account(write, size, service, interfered)
        if attribution:
            cost.attribution = attribute_io(
                self.timing,
                cost,
                wait=start - now,
                service_base=service_base,
                service_scaled=service_scaled,
                service_final=service,
                response=completion - now,
                channel=channel,
            )
        return start, completion, cost, channel

    def submit(self, request: IORequest, now: float) -> CompletedIO:
        """Submit one IO at simulated time ``now`` and service it.

        The device is a single queue: service starts when it falls idle.
        Response time = completion − submission, queueing included.
        """
        start, completion, cost, _channel = self._dispatch(
            request.lba, request.size, request.mode is Mode.WRITE, now,
            overlap=False,
        )
        return CompletedIO(
            request=request,
            submitted_at=now,
            started_at=start,
            completed_at=completion,
            cost=cost,
        )

    def submit_into(
        self,
        trace: "IOTrace",
        index: int,
        lba: int,
        size: int,
        write: bool,
        now: float,
        scheduled_at: float,
    ) -> float:
        """Service one IO and record it straight into a columnar trace.

        The hot-path equivalent of :meth:`submit` used by the hosts'
        program runners: no :class:`~repro.iotypes.IORequest` /
        :class:`~repro.iotypes.CompletedIO` objects are built, the row
        lands in ``trace`` as scalars.  Returns the completion time.
        """
        start, completion, cost, _channel = self._dispatch(
            lba, size, write, now, overlap=False
        )
        trace.record(
            index, lba, size, write, scheduled_at, now, start, completion, cost
        )
        return completion

    # ------------------------------------------------------------------
    # the NCQ interface (submission/completion queue)
    # ------------------------------------------------------------------

    def submit_async(
        self,
        lba: int,
        size: int,
        write: bool,
        now: float,
        tag: int,
        scheduled_at: float | None = None,
    ) -> QueuedCompletion:
        """Queue one IO without blocking; raises when the queue is full.

        The IO is dispatched immediately (FTL and controller state
        mutate in submission order — the command queue reorders
        *completions*, never the logical writes themselves) onto the
        earliest-free channel, and a completion event is queued for the
        host to pop.  Returns the in-flight entry; its ``completed_at``
        is already final, but the host must still
        :meth:`pop_next_completion` to retire it from the queue.
        """
        if not self._queue.has_slot():
            raise QueueError(
                f"device queue full ({self.queue_depth} IOs in flight)"
            )
        start, completion, cost, channel = self._dispatch(
            lba, size, write, now, overlap=True
        )
        entry = QueuedCompletion(
            tag=tag,
            lba=lba,
            size=size,
            write=write,
            scheduled_at=now if scheduled_at is None else scheduled_at,
            submitted_at=now,
            started_at=start,
            completed_at=completion,
            channel=channel,
            cost=cost,
        )
        self._queue.push(entry)
        return entry

    def pop_next_completion(self) -> QueuedCompletion:
        """Block until the earliest queued IO completes and return it.

        Completions pop in ``(completed_at, submission order)`` order;
        raises :class:`~repro.errors.QueueError` when nothing is in
        flight.
        """
        return self._queue.pop()

    def poll_completions(self, until: float) -> list[QueuedCompletion]:
        """Pop every queued IO that completes at or before ``until``."""
        done: list[QueuedCompletion] = []
        while True:
            when = self._queue.peek_time()
            if when is None or when > until:
                return done
            done.append(self._queue.pop())

    @property
    def in_flight(self) -> int:
        """Number of queued IOs not yet popped by the host."""
        return self._queue.in_flight

    def read(self, lba: int, size: int, now: float = 0.0) -> CompletedIO:
        """Convenience synchronous read (examples / tests)."""
        return self.submit(IORequest(0, lba, size, Mode.READ, now), now)

    def write(self, lba: int, size: int, now: float = 0.0) -> CompletedIO:
        """Convenience synchronous write (examples / tests)."""
        return self.submit(IORequest(0, lba, size, Mode.WRITE, now), now)

    # ------------------------------------------------------------------
    # background engine
    # ------------------------------------------------------------------

    def _grant_background(self, usec: float) -> None:
        """Feed ``usec`` of reclamation-capable time to the FTL."""
        if usec <= 0.0:
            return
        self._bg_credit += usec
        while self._bg_credit > 0.0 and self.ftl.background_work_pending():
            unit = self.ftl.do_background_unit()
            if unit is None:
                break
            spent = unit.total(self.timing, include_overhead=False)
            self._bg_credit -= spent
            self.stats.background_units += 1
            self.stats.background_usec += spent
        # Positive leftover credit must not subsidise future foreground
        # phases; negative credit (the last unit overran its window) is
        # real debt and must be paid in full by later grants — clamping
        # it would let interleaved reads absorb merges below cost.
        self._bg_credit = min(self._bg_credit, self.background.max_leftover_credit_usec)

    def background_pending(self) -> bool:
        """Whether deferred device work exists right now."""
        return self.ftl.background_work_pending()

    def idle(self, until: float) -> None:
        """Declare the device idle up to simulated time ``until``.

        Equivalent to the methodology's pause between runs: background
        work proceeds during the gap.
        """
        if until > self._busy_until:
            self._grant_background(until - self._busy_until)
            self._busy_until = until

    def drain(self) -> CostAccumulator:
        """Force-complete all deferred work and flush the RAM cache.

        Used by state enforcement and between experiments when the
        methodology's pause is long enough to rest the device fully.
        The command queue must be empty: queued IOs belong to a host
        that has not observed their completions yet, and silently
        discarding them would corrupt its trace.
        """
        if self._queue.in_flight:
            raise QueueError(
                f"cannot drain with {self._queue.in_flight} IOs in flight; "
                "pop all completions first"
            )
        total = CostAccumulator()
        self.controller.flush_cache(total)
        total.add(self.ftl.drain_background())
        self._bg_credit = 0.0
        return total

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> "DeviceSnapshot":
        """Capture the complete device state as an independent copy.

        The snapshot composes every stateful layer — chip, FTL,
        controller (with its RAM cache), device counters, the busy
        horizon, the background-credit account and the noise RNG — so a
        later :meth:`restore` resumes *bit-identical* behaviour.  It is
        picklable, which lets campaign worker processes restore an
        enforced state without re-paying for the enforcement.
        """
        from repro.flashsim.snapshot import DeviceSnapshot

        return DeviceSnapshot(
            device_name=self.name,
            logical_bytes=self.geometry.logical_bytes,
            physical_blocks=self.geometry.physical_blocks,
            ftl_type=type(self.ftl).__name__,
            chip=self.chip.snapshot(),
            ftl=self.ftl.snapshot(),
            controller=self.controller.snapshot(),
            stats=replace(self.stats),
            busy_until=self._busy_until,
            bg_credit=self._bg_credit,
            noise_state=self._noise_rng.getstate(),
            channel_busy=self._channels.snapshot(),
            queue=self._queue.snapshot(),
        )

    def restore(self, state: "DeviceSnapshot") -> None:
        """Reset the device to a :meth:`snapshot`.

        The snapshot must come from a device of the same shape: same
        geometry dimensions and FTL family (and, transitively, the same
        cache configuration).  The snapshot itself is left untouched, so
        it can be restored again.
        """
        if (
            state.logical_bytes != self.geometry.logical_bytes
            or state.physical_blocks != self.geometry.physical_blocks
        ):
            raise SnapshotError(
                f"snapshot of {state.device_name!r} "
                f"({state.logical_bytes} logical bytes, "
                f"{state.physical_blocks} blocks) does not fit device "
                f"{self.name!r} ({self.geometry.logical_bytes} bytes, "
                f"{self.geometry.physical_blocks} blocks)"
            )
        if state.ftl_type != type(self.ftl).__name__:
            raise SnapshotError(
                f"snapshot carries {state.ftl_type} state but this device "
                f"runs {type(self.ftl).__name__}"
            )
        self.chip.restore(state.chip)
        self.ftl.restore(state.ftl)
        self.controller.restore(state.controller)
        self.stats = replace(state.stats)
        self._busy_until = state.busy_until
        self._bg_credit = state.bg_credit
        self._noise_rng.setstate(state.noise_state)
        if len(state.channel_busy) != len(self._channels):
            raise SnapshotError(
                f"snapshot carries {len(state.channel_busy)} channel "
                f"horizons but this device has {len(self._channels)} "
                "channels"
            )
        self._channels.restore(state.channel_busy)
        self._queue.restore(state.queue)

    def fingerprint(self) -> str:
        """Content hash of the current device state.

        Covers the physical flash arrays, the logical-content shadow and
        the busy horizon — everything that determines future timing for
        a deterministic device.  Used as the state component of run-cache
        keys: two devices with equal fingerprints (same profile) produce
        identical measurements for identical specs.
        """
        hasher = hashlib.sha256()
        hasher.update(self.name.encode())
        hasher.update(str(self.geometry.logical_bytes).encode())
        self.chip.update_digest(hasher)
        self.controller.update_digest(hasher)
        hasher.update(repr((self._busy_until, self._bg_credit)).encode())
        # per-channel horizons and any still-queued IOs determine future
        # timing too; the queue's occupancy *counters* are observability,
        # not state, and stay out (a drained async device fingerprints
        # identically to its synchronous twin)
        hasher.update(repr(self._channels.snapshot()).encode())
        hasher.update(repr(self._queue.pending_digest()).encode())
        return hasher.hexdigest()

    # ------------------------------------------------------------------
    # accounting / introspection
    # ------------------------------------------------------------------

    def _account(
        self, write: bool, size: int, service: float, interfered: bool
    ) -> None:
        self.stats.busy_usec += service
        if not write:
            self.stats.reads += 1
            self.stats.bytes_read += size
            if interfered:
                self.stats.interfered_reads += 1
        else:
            self.stats.writes += 1
            self.stats.bytes_written += size

    def metrics(self) -> dict[str, float]:
        """Cumulative counters for every layer as one flat map.

        Composes the device's own IO accounting with the chip's
        operation counters, the FTL's reclamation counters (under an
        ``ftl.`` prefix) and the controller/cache traffic.  All values
        are monotonic, so the campaign executor samples this at run and
        cell boundaries and subtracts — the simulator's per-IO hot path
        carries no extra instrumentation.
        """
        counts = {
            "device.reads": float(self.stats.reads),
            "device.writes": float(self.stats.writes),
            "device.bytes_read": float(self.stats.bytes_read),
            "device.bytes_written": float(self.stats.bytes_written),
            "device.busy_usec": self.stats.busy_usec,
            "device.background_units": float(self.stats.background_units),
            "device.background_usec": self.stats.background_usec,
            "device.interfered_reads": float(self.stats.interfered_reads),
            "device.queued_ios": float(self.stats.queued_ios),
            "device.queue_wait_usec": self.stats.queue_wait_usec,
        }
        counts.update(self._queue.metrics())
        counts.update(self.chip.metrics())
        counts.update(
            (f"ftl.{name}", value) for name, value in self.ftl.metrics().items()
        )
        counts.update(self.controller.metrics())
        return counts

    @property
    def busy_until(self) -> float:
        """Simulated time at which the device falls idle."""
        return self._busy_until

    def check_invariants(self) -> None:
        """Delegate to the FTL's consistency checks (tests)."""
        self.ftl.check_invariants()

    def describe(self) -> str:
        """One-line device description (name, geometry, FTL)."""
        return f"{self.name}: {self.geometry.describe()}, FTL={type(self.ftl).__name__}"
