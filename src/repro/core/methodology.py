"""Benchmarking methodology: device state and run-control selection.

Section 4.1: *ignoring the state of a flash device can lead to
meaningless performance measurements* — the paper's Samsung SSD wrote
16 KiB random IOs in ~1 ms out of the box and ~an order of magnitude
slower after the whole device had been written once.  uFLIP therefore
assumes **writing the whole device completely yields a well-defined
state**, and enforces it with random IOs of random size (0.5 KiB up to
the flash block size) over the whole device.

Section 5.1 gives the paper's concrete IOCount/IOIgnore rules, which
:func:`recommended_io_count` and :func:`recommended_io_ignore`
reproduce (scaled for the simulated capacities).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.generator import IOProgram
from repro.core.patterns import PatternSpec
from repro.flashsim import analytic
from repro.flashsim.device import FlashDevice
from repro.flashsim.host import SyncHost
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.units import SECTOR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flashsim.snapshot import DeviceSnapshot


@dataclass(frozen=True)
class StateReport:
    """What a state-enforcement pass did."""

    method: str
    io_count: int
    bytes_written: int
    elapsed_usec: float
    mean_io_usec: float


def enforce_random_state(
    device: FlashDevice,
    coverage: float = 1.0,
    min_size: int = SECTOR,
    max_size: int | None = None,
    seed: int = 7,
) -> StateReport:
    """Enforce the random initial state (Section 4.1).

    Issues random writes of random size (``min_size`` up to the flash
    block size) at random sector-aligned locations until ``coverage``
    times the capacity has been written, then lets all deferred
    reclamation complete (the one-off enforcement is followed by ample
    idle time in practice).

    The random state is *stable*: only sequential writes disturb it
    significantly, which is why the benchmark plan directs those to
    fresh target spaces instead of re-enforcing.

    The paper enforces the state with the same direct, synchronous
    writes it measures, and so does this function: the write stream is
    RNG-driven, not response-driven, so the whole (size, lba) sequence
    is pre-drawn into one back-to-back
    :class:`~repro.core.generator.IOProgram` and run by
    :meth:`SyncHost.run_program <repro.flashsim.host.SyncHost.run_program>`
    from the device's busy horizon, in the one loop every measured
    program takes: a page-map device takes the whole program as one
    closed-form write window (:func:`repro.flashsim.analytic.write_window`,
    garbage collection included); on block-map, hybrid and FAST
    devices, caches, wear levelling and fault injection the window
    declines and the host's per-IO step runs it.
    """
    if coverage <= 0:
        raise ValueError("coverage must be positive")
    geometry = device.geometry
    top_size = max_size or geometry.block_size
    rng = random.Random(seed)
    target_bytes = int(coverage * geometry.logical_bytes)
    sizes: list[int] = []
    lbas: list[int] = []
    written = 0
    while written < target_bytes:
        size = rng.randrange(min_size, top_size + 1, SECTOR)
        max_lba = geometry.logical_bytes - size
        lbas.append(rng.randrange(0, max_lba + 1, SECTOR))
        sizes.append(size)
        written += size
    return _run_writes(device, "random", lbas, sizes)


def enforce_sequential_state(
    device: FlashDevice, io_size: int = 128 * 1024
) -> StateReport:
    """Enforce a sequential initial state (the faster but less stable
    alternative discussed in Section 4.1): one sequential pass over the
    whole device in ``io_size`` writes, run as one back-to-back program
    through :class:`~repro.flashsim.host.SyncHost` exactly like
    :func:`enforce_random_state`'s."""
    capacity = device.geometry.logical_bytes
    lbas = list(range(0, capacity, io_size))
    sizes = [min(io_size, capacity - lba) for lba in lbas]
    return _run_writes(device, "sequential", lbas, sizes)


def _run_writes(
    device: FlashDevice, method: str, lbas: list[int], sizes: list[int]
) -> StateReport:
    """Run pre-drawn writes back to back from the device's busy horizon
    through :class:`~repro.flashsim.host.SyncHost`, drain deferred work
    and report the pass."""
    count = len(sizes)
    program = IOProgram(
        lbas=np.asarray(lbas, dtype=np.int64),
        sizes=np.asarray(sizes, dtype=np.int64),
        writes=np.ones(count, dtype=np.bool_),
        gaps=np.zeros(count, dtype=np.float64),
    )
    start = device.busy_until
    SyncHost(device).run_program(program, start_at=start)
    elapsed = device.busy_until - start
    device.drain()
    return StateReport(
        method=method,
        io_count=count,
        bytes_written=sum(sizes),
        elapsed_usec=elapsed,
        mean_io_usec=elapsed / count if count else 0.0,
    )


# ----------------------------------------------------------------------
# memoized enforcement (snapshot/restore)
# ----------------------------------------------------------------------

@dataclass
class EnforcedState:
    """A memoized enforced device state.

    Carries the enforcement report, the snapshot every later consumer
    restores from, and the device-state fingerprint that keys run-cache
    entries.
    """

    report: StateReport
    snapshot: "DeviceSnapshot"
    fingerprint: str


class StatePool:
    """Enforce each distinct device state once; restore it thereafter.

    Enforcement is the methodology's dominant cost (Section 4.1: hours
    to weeks per real device).  The pool keys states by (device name,
    capacity, method, coverage, seed); the first :meth:`ensure` for a
    key pays for the full fill, every later call restores the snapshot —
    the same reproducible state at constant cost.
    """

    def __init__(self) -> None:
        self._states: dict[tuple, EnforcedState] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._states)

    def ensure(
        self,
        device: FlashDevice,
        method: str = "random",
        coverage: float = 1.0,
        seed: int = 7,
    ) -> EnforcedState:
        """Put ``device`` into the enforced state, cheaply if possible.

        ``method`` is ``"random"`` (Section 4.1's default), ``"sequential"``
        (the faster, less stable alternative) or ``"none"`` (snapshot the
        device as-is — out-of-the-box measurements).
        """
        key = (device.name, device.geometry.logical_bytes, method, coverage, seed)
        state = self._states.get(key)
        registry = obs_metrics.current()
        if state is not None:
            self.hits += 1
            if registry is not None:
                registry.counter("core.state_pool.hits").inc()
            device.restore(state.snapshot)
            return state
        self.misses += 1
        if registry is not None:
            registry.counter("core.state_pool.misses").inc()
        baseline = analytic.STATS.counters() if registry is not None else None
        with obs_tracing.span(
            "enforce", cat="methodology", device=device.name, method=method
        ):
            if method == "random":
                report = enforce_random_state(device, coverage=coverage, seed=seed)
            elif method == "sequential":
                report = enforce_sequential_state(device)
            elif method == "none":
                report = StateReport(
                    method="none", io_count=0, bytes_written=0,
                    elapsed_usec=0.0, mean_io_usec=0.0,
                )
            else:
                raise ValueError(f"unknown state-enforcement method {method!r}")
            state = EnforcedState(
                report=report,
                snapshot=device.snapshot(),
                fingerprint=device.fingerprint(),
            )
        if registry is not None:
            analytic.publish_stats(registry, baseline)
        self._states[key] = state
        return state


# ----------------------------------------------------------------------
# IOCount / IOIgnore selection (Section 5.1's rules)
# ----------------------------------------------------------------------

#: scale factor between the paper's IOCounts (against 2-32 GB devices)
#: and the simulator's defaults (against scaled capacities)
DEFAULT_SCALE = 0.25


def recommended_io_count(kind: str, label: str, scale: float = DEFAULT_SCALE) -> int:
    """The paper's IOCount rule (Section 5.1), scaled.

    SSDs: 1,024 for SR/RR/SW (very small oscillations) and 5,120 for RW
    (large oscillations).  Slow/small devices (USB, IDE module, SD
    card): 512 in all cases.
    """
    if kind.upper() == "SSD":
        base = 5_120 if label == "RW" else 1_024
    else:
        base = 512
    return max(32, int(base * scale))


def recommended_io_ignore(startup: int, margin: float = 1.25) -> int:
    """IOIgnore must cover the start-up phase with some margin."""
    if startup <= 0:
        return 0
    return int(startup * margin) + 1


def run_control_for(
    startup: int, period: int | None, min_periods: int = 8, floor: int = 64
) -> tuple[int, int]:
    """Derive (io_ignore, io_count) from a phase analysis (Section 4.2):
    ignore the start-up phase, then capture enough oscillation periods
    for the running average to converge."""
    io_ignore = recommended_io_ignore(startup)
    running = max(floor, (period or 1) * min_periods)
    return io_ignore, io_ignore + running


def spec_with_run_control(spec: PatternSpec, startup: int, period: int | None) -> PatternSpec:
    """Apply :func:`run_control_for` to a pattern spec."""
    io_ignore, io_count = run_control_for(startup, period)
    return spec.with_(io_ignore=io_ignore, io_count=max(spec.io_count, io_count))
