"""(Semi-)automatic tuning of experiment length — the paper's first
avenue of future work (Section 6): *tune the experiment length to
ensure that the start-up period is omitted and the running phase
captured sufficiently well to guarantee given bounds for the confidence
interval, while minimizing the IOs issued*.

:func:`autotune_run` executes a pattern incrementally against a device
— one precomputed program, run in chunks — re-detecting the two phases after
each chunk and stopping as soon as the running-phase mean's confidence
interval is tight enough (or a hard IO budget is hit).  It returns the
tuned ``(io_ignore, io_count)`` with the measurements, so a benchmark
plan can reuse them for every run of the same reference pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.generator import PatternGenerator
from repro.core.patterns import PatternSpec
from repro.core.phases import PhaseAnalysis, detect_phases
from repro.core.stats import RunStats, summarize
from repro.errors import AnalysisError
from repro.flashsim.device import FlashDevice
from repro.flashsim.host import SyncHost

#: z-score for the default 95% confidence level
_Z95 = 1.96


@dataclass(frozen=True)
class AutotuneResult:
    """Outcome of an adaptive run."""

    io_ignore: int
    io_count: int
    stats: RunStats
    phases: PhaseAnalysis
    ci_halfwidth_usec: float
    relative_ci: float
    converged: bool
    chunks: int
    responses: tuple[float, ...]

    def summary(self) -> str:
        """One-line description of the tuning outcome."""
        marker = "converged" if self.converged else "budget hit"
        return (
            f"{marker}: IOIgnore={self.io_ignore} IOCount={self.io_count} "
            f"mean={self.stats.mean_usec / 1000:.3f} ms "
            f"+/- {self.ci_halfwidth_usec / 1000:.3f} ms "
            f"({100 * self.relative_ci:.1f}%)"
        )


def confidence_halfwidth(responses: np.ndarray) -> tuple[float, float]:
    """(CI half-width, half-width / mean) of a sample mean at 95%.

    Response times within a run are serially correlated (the running
    phase oscillates periodically), so the effective sample size is
    reduced by the lag-1 autocorrelation — the classic correction that
    keeps the interval honest for dependent samples.
    """
    n = responses.size
    mean = float(responses.mean()) if n else 0.0
    if n < 8 or mean == 0:
        return float("inf"), float("inf")
    centered = responses - mean
    denominator = float((centered * centered).sum())
    if denominator == 0:
        return 0.0, 0.0
    rho = float((centered[:-1] * centered[1:]).sum()) / denominator
    rho = max(-0.99, min(0.99, rho))
    effective_n = max(4.0, n * (1 - rho) / (1 + rho))
    half = _Z95 * float(responses.std(ddof=1)) / np.sqrt(effective_n)
    return half, half / mean


def autotune_run(
    device: FlashDevice,
    spec: PatternSpec,
    relative_ci: float = 0.10,
    chunk: int = 64,
    min_ios: int = 256,
    max_ios: int = 4096,
    min_running: int = 64,
    startup_margin: float = 1.25,
) -> AutotuneResult:
    """Run ``spec`` adaptively until the running-phase mean is known to
    within ``relative_ci`` (95% confidence), spending as few IOs as
    possible.

    The spec's own ``io_count``/``io_ignore`` are ignored; the pattern
    itself (sizes, locations, timing, seed) is preserved and simply
    extended up to ``max_ios`` IOs, consumed chunk by chunk.

    ``min_ios`` is the exploration floor: a start-up phase is cheap
    *and stable*, so a purely statistical criterion would converge
    inside it (Section 4.2's pitfall); the floor forces the run deep
    enough to expose a hidden phase transition first.  Convergence also
    requires the two halves of the running phase to agree, guarding
    against slow drift.
    """
    if not 0 < relative_ci < 1:
        raise AnalysisError("relative_ci must be in (0, 1)")
    if chunk < 16:
        raise AnalysisError("chunks below 16 IOs cannot support phase detection")
    if max_ios < chunk:
        raise AnalysisError("max_ios must be at least one chunk")
    if min_ios > max_ios:
        raise AnalysisError("min_ios cannot exceed max_ios")

    span = max(spec.target_size, _sequential_span(spec, max_ios))
    available = device.capacity - spec.target_offset - spec.io_shift
    span = min(span, (available // spec.io_size) * spec.io_size)
    long_spec = spec.with_(io_count=max_ios, io_ignore=0, target_size=span)
    program = PatternGenerator(long_spec).program()
    host = SyncHost(device)
    clock = device.busy_until

    responses: list[float] = []
    chunks = 0
    while len(responses) < max_ios:
        first = len(responses)
        last = min(first + chunk, max_ios)
        # IO i is scheduled at the previous completion plus its gap
        # (Table 1), so a chunk starts where the previous one ended
        start_at = clock + float(program.gaps[first]) if first else clock
        trace = host.run_program(program.slice(first, last), start_at=start_at)
        responses.extend(trace.response_times().tolist())
        clock = float(trace.column("completed_at")[-1])
        chunks += 1

        values = np.asarray(responses)
        if values.size < max(min_ios, min_running, 16):
            continue
        phases = detect_phases(values)
        io_ignore = int(phases.startup * startup_margin) if phases.startup else 0
        running = values[io_ignore:]
        if running.size < min_running:
            continue
        half, rel = confidence_halfwidth(running)
        mid = running.size // 2
        halves_agree = _relative_gap(
            float(running[:mid].mean()), float(running[mid:].mean())
        ) <= 2 * relative_ci
        if rel <= relative_ci and halves_agree:
            return AutotuneResult(
                io_ignore=io_ignore,
                io_count=len(responses),
                stats=summarize(responses, io_ignore),
                phases=phases,
                ci_halfwidth_usec=half,
                relative_ci=rel,
                converged=True,
                chunks=chunks,
                responses=tuple(responses),
            )

    values = np.asarray(responses)
    phases = detect_phases(values)
    io_ignore = int(phases.startup * startup_margin) if phases.startup else 0
    io_ignore = max(0, min(io_ignore, len(responses) - min_running))
    running = values[io_ignore:]
    half, rel = confidence_halfwidth(running)
    return AutotuneResult(
        io_ignore=io_ignore,
        io_count=len(responses),
        stats=summarize(responses, io_ignore),
        phases=phases,
        ci_halfwidth_usec=half,
        relative_ci=rel,
        converged=False,
        chunks=chunks,
        responses=tuple(responses),
    )


def _relative_gap(a: float, b: float) -> float:
    denominator = max(abs(a), abs(b))
    return abs(a - b) / denominator if denominator else 0.0


def _sequential_span(spec: PatternSpec, io_count: int) -> int:
    """Target size needed for ``io_count`` non-wrapping sequential IOs
    (other locations keep their own target)."""
    if spec.location.value != "sequential":
        return spec.target_size
    return io_count * spec.io_size


__all__ = ["AutotuneResult", "autotune_run", "confidence_halfwidth"]
