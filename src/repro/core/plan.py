"""Benchmark plans: target-space allocation, ordering and state resets.

Section 4.2: once IOCount is set, the methodology defines *a benchmark
plan — a sequence of state resets and micro-benchmarks, where the
experiments involving sequential writes are delayed and grouped together
so that their allocated target spaces do not overlap*; a state reset is
inserted only when the accumulated sequential-write target space exceeds
the device.  (The random state is stable under reads and random writes —
only sequential writes disturb it.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

from repro.core.experiment import (
    Experiment,
    ExperimentResult,
    SpecLike,
    run_experiment,
)
from repro.core.patterns import (
    LocationKind,
    MixSpec,
    ParallelMixSpec,
    ParallelSpec,
    PatternSpec,
)
from repro.errors import PlanError
from repro.flashsim.device import FlashDevice
from repro.flashsim.snapshot import DeviceSnapshot
from repro.obs import tracing as obs_tracing
from repro.units import SEC


def needs_fresh_space(spec: SpecLike) -> bool:
    """Whether a spec's writes disturb the random state (sequential-
    family writes must land on a fresh target space)."""
    if isinstance(spec, PatternSpec):
        from repro.iotypes import Mode

        return spec.mode is Mode.WRITE and spec.location is not LocationKind.RANDOM
    if isinstance(spec, MixSpec):
        return needs_fresh_space(spec.primary) or needs_fresh_space(spec.secondary)
    if isinstance(spec, ParallelSpec):
        return needs_fresh_space(spec.base)
    if isinstance(spec, ParallelMixSpec):
        return any(needs_fresh_space(component) for component in spec.components)
    return False


def spec_footprint(spec: SpecLike) -> int:
    """Bytes of target space a spec consumes when freshly placed."""
    if isinstance(spec, PatternSpec):
        return spec.target_size + spec.io_shift
    if isinstance(spec, MixSpec):
        return spec_footprint(spec.primary) + spec_footprint(spec.secondary)
    if isinstance(spec, ParallelSpec):
        return spec_footprint(spec.base)
    if isinstance(spec, ParallelMixSpec):
        return sum(spec_footprint(component) for component in spec.components)
    raise PlanError(f"cannot size spec of type {type(spec).__name__}")


class TargetAllocator:
    """Bump allocator for sequential-write target spaces.

    Offsets are aligned to the device's block size so that fresh
    sequential writes start on erase-block boundaries (as the paper's
    TargetOffset placement does implicitly by using large round
    offsets).
    """

    def __init__(self, capacity: int, align: int) -> None:
        if capacity <= 0 or align <= 0:
            raise PlanError("capacity and alignment must be positive")
        self.capacity = capacity
        self.align = align
        self._cursor = 0
        self.resets = 0

    @property
    def used(self) -> int:
        """Bytes of fresh target space handed out so far."""
        return self._cursor

    def reset(self) -> None:
        """Restart the allocator after a state re-enforcement."""
        self._cursor = 0
        self.resets += 1

    def try_allocate(self, nbytes: int) -> int | None:
        """Allocate ``nbytes`` of fresh space; None when exhausted."""
        aligned = -(-nbytes // self.align) * self.align
        if aligned > self.capacity:
            raise PlanError(
                f"a single target space of {nbytes} bytes exceeds the device "
                f"capacity {self.capacity}"
            )
        if self._cursor + aligned > self.capacity:
            return None
        offset = self._cursor
        self._cursor += aligned
        return offset

    def place(self, spec: SpecLike) -> SpecLike | None:
        """Rewrite a spec's target offset onto fresh space (None when a
        state reset is needed first).  Specs that do not disturb the
        state are returned unchanged.

        A mix moves the halves that need fresh space; when a moved half
        would then overlap the half left in place, that half gets
        allocated space as well, so the two stay disjoint."""
        if not needs_fresh_space(spec):
            return spec
        if isinstance(spec, PatternSpec):
            return self._place_pattern(spec)
        if isinstance(spec, ParallelSpec):
            base = self._place_pattern(spec.base)
            if base is None:
                return None
            return ParallelSpec(base=base, parallel_degree=spec.parallel_degree)
        if isinstance(spec, MixSpec):
            halves = [spec.primary, spec.secondary]
            fresh = [needs_fresh_space(half) for half in halves]
            for which in (0, 1):
                if fresh[which]:
                    halves[which] = self._place_pattern(halves[which])
                    if halves[which] is None:
                        return None
            (start_a, end_a), (start_b, end_b) = (half.footprint for half in halves)
            if max(start_a, start_b) < min(end_a, end_b):
                unmoved = fresh.index(False)
                halves[unmoved] = self._place_pattern(halves[unmoved])
                if halves[unmoved] is None:
                    return None
            return MixSpec(
                primary=halves[0],
                secondary=halves[1],
                ratio=spec.ratio,
                io_count=spec.io_count,
                io_ignore=spec.io_ignore,
            )
        raise PlanError(f"cannot place spec of type {type(spec).__name__}")

    def _place_pattern(self, pattern: PatternSpec) -> PatternSpec | None:
        """One pattern moved onto fresh space (None when exhausted)."""
        offset = self.try_allocate(pattern.target_size + pattern.io_shift)
        if offset is None:
            return None
        return pattern.with_(target_offset=offset)


def restoring_allocator(
    device: FlashDevice, state: DeviceSnapshot, allocator: TargetAllocator
) -> Callable[[SpecLike], SpecLike]:
    """``allocator.place`` with the runtime guard for a dry target space.

    A spec that no longer fits restores the enforced ``state`` onto
    ``device``, restarts the allocator and is placed again; one that
    does not fit even then raises :class:`PlanError`.
    """

    def allocate(spec: SpecLike) -> SpecLike:
        placed = allocator.place(spec)
        if placed is None:
            device.restore(state)
            allocator.reset()
            placed = allocator.place(spec)
            if placed is None:
                raise PlanError("spec does not fit even on a fresh device")
        return placed

    return allocate


def _spec_io_count(spec: SpecLike) -> int:
    """Total IOs a spec issues when executed once."""
    if isinstance(spec, PatternSpec):
        return spec.io_count
    if isinstance(spec, MixSpec):
        return spec.io_count
    if isinstance(spec, ParallelSpec):
        return sum(process.io_count for process in spec.process_specs())
    if isinstance(spec, ParallelMixSpec):
        return sum(component.io_count for component in spec.components)
    raise PlanError(f"cannot size spec of type {type(spec).__name__}")


@dataclass(frozen=True)
class PlanEstimate:
    """Predicted budget of a benchmark plan."""

    experiments: int
    runs: int
    ios: int
    fresh_target_bytes: int
    resets: int
    simulated_usec: float

    def summary(self) -> str:
        """One-line description of the predicted budget."""
        from repro.units import SEC, fmt_size

        return (
            f"{self.experiments} experiments, {self.runs} runs, "
            f"{self.ios} IOs, {fmt_size(self.fresh_target_bytes)} fresh "
            f"target space, {self.resets} reset(s), "
            f"~{self.simulated_usec / SEC:.0f}s simulated"
        )


@dataclass(frozen=True)
class StateReset:
    """Plan step: re-enforce the device state."""

    reason: str = "sequential-write target space exhausted"


PlanStep = Union[StateReset, Experiment]


@dataclass
class BenchmarkPlan:
    """An ordered sequence of experiments and state resets."""

    capacity: int
    align: int
    steps: list[PlanStep] = field(default_factory=list)

    @staticmethod
    def build(
        experiments: list[Experiment],
        capacity: int,
        align: int,
        repetitions: int = 1,
    ) -> "BenchmarkPlan":
        """Order experiments per the methodology: state-preserving
        experiments first, sequential-write experiments delayed and
        grouped, with state resets inserted when the accumulated
        sequential-write footprint would exceed the device."""
        preserving: list[Experiment] = []
        disturbing: list[tuple[Experiment, int]] = []
        for experiment in experiments:
            footprint = 0
            disturbs = False
            for value in experiment.values:
                spec = experiment.spec_for(value)
                if needs_fresh_space(spec):
                    disturbs = True
                    footprint += spec_footprint(spec) * repetitions
            if disturbs:
                disturbing.append((experiment, footprint))
            else:
                preserving.append(experiment)

        plan = BenchmarkPlan(capacity=capacity, align=align)
        plan.steps.extend(preserving)
        accumulated = 0
        for experiment, footprint in disturbing:
            if accumulated + footprint > capacity and accumulated > 0:
                plan.steps.append(StateReset())
                accumulated = 0
            plan.steps.append(experiment)
            accumulated += footprint
        return plan

    @property
    def reset_count(self) -> int:
        """Number of state resets the plan schedules."""
        return sum(1 for step in self.steps if isinstance(step, StateReset))

    def estimate(
        self,
        per_io_usec: float = 2_000.0,
        reset_usec: float = 0.0,
        repetitions: int = 1,
        pause_usec: float = 0.0,
    ) -> "PlanEstimate":
        """Predict the plan's cost before running it (Section 6 asks for
        (semi-)automatic plan generation; knowing a plan's budget is the
        first half of choosing between candidate plans).

        ``per_io_usec`` is a pessimistic per-IO cost (default 2 ms — a
        mid-range random write); ``reset_usec`` the cost of one state
        re-enforcement.  Estimates are upper-bound flavoured: real runs
        mix cheap reads in.
        """
        total_ios = 0
        total_runs = 0
        fresh_bytes = 0
        for step in self.steps:
            if isinstance(step, StateReset):
                continue
            for value in step.values:
                spec = step.spec_for(value)
                total_ios += _spec_io_count(spec) * repetitions
                total_runs += repetitions
                if needs_fresh_space(spec):
                    fresh_bytes += spec_footprint(spec) * repetitions
        simulated = (
            total_ios * per_io_usec
            + self.reset_count * reset_usec
            + total_runs * pause_usec
        )
        return PlanEstimate(
            experiments=sum(
                1 for step in self.steps if not isinstance(step, StateReset)
            ),
            runs=total_runs,
            ios=total_ios,
            fresh_target_bytes=fresh_bytes,
            resets=self.reset_count,
            simulated_usec=simulated,
        )

    def execute(
        self,
        device: FlashDevice,
        enforce_state: Callable[[FlashDevice], object],
        pause_usec: float = 1.0 * SEC,
        repetitions: int = 1,
    ) -> dict[str, ExperimentResult]:
        """Run the plan: enforce the state once up front and snapshot
        it; each scheduled reset (and the runtime guard that fires when
        the allocator runs dry mid-experiment) *restores* the snapshot
        instead of re-paying for a whole-device fill."""
        enforce_state(device)
        baseline = device.snapshot()
        allocator = TargetAllocator(self.capacity, self.align)
        allocate = restoring_allocator(device, baseline, allocator)
        results: dict[str, ExperimentResult] = {}
        for step in self.steps:
            if isinstance(step, StateReset):
                with obs_tracing.span("state-reset", cat="plan"):
                    device.restore(baseline)
                    allocator.reset()
                continue
            with obs_tracing.span("experiment", cat="plan", experiment=step.name):
                results[step.name] = run_experiment(
                    device,
                    step,
                    pause_usec=pause_usec,
                    repetitions=repetitions,
                    allocate=allocate,
                )
        return results
