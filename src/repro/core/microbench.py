"""The nine uFLIP micro-benchmarks (Section 3.2, Table 1).

Each micro-benchmark is a collection of related experiments over the
baseline patterns, all sharing one varying parameter:

1. **Granularity** (IOSize)      6. **Parallelism** (ParallelDegree)
2. **Alignment** (IOShift)       7. **Mix** (Ratio)
3. **Locality** (TargetSize)     8. **Pause** (Pause)
4. **Partitioning** (Partitions) 9. **Bursts** (Burst)
5. **Order** (Incr)

A tenth, **Queue depth** (QueueDepth), extends the paper's synchronous
host model with NCQ-style in-flight IO.

Builders take the device capacity (patterns must fit the scaled
devices) and run-control parameters; parameter ranges default to
tractable subsets of Table 1's full ranges, which are available from
:func:`table1_values`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.experiment import Experiment
from repro.core.patterns import (
    LocationKind,
    MixSpec,
    ParallelSpec,
    PatternSpec,
    baselines,
)
from repro.errors import PatternError
from repro.iotypes import Mode
from repro.units import KIB, MSEC, SECTOR

#: canonical Table 1 parameter ranges
_TABLE1 = {
    # [2^0 .. 2^9] x 512B, plus some non-powers of two
    "granularity": tuple(SECTOR * (1 << k) for k in range(10))
    + (3 * KIB, 24 * KIB, 48 * KIB),
    # [2^0 .. IOSize/512] x 512B (depends on IOSize; see alignment())
    "alignment": None,
    # Rnd: [2^0 .. 2^16] x IOSize ; Seq: [2^0 .. 2^8] x IOSize
    "locality_random": tuple(1 << k for k in range(17)),
    "locality_sequential": tuple(1 << k for k in range(9)),
    # [2^0 .. 2^8]
    "partitioning": tuple(1 << k for k in range(9)),
    # [-1, 0, 2^0 .. 2^8]
    "order": (-1, 0) + tuple(1 << k for k in range(9)),
    # [2^0 .. 2^4]
    "parallelism": tuple(1 << k for k in range(5)),
    # [2^0 .. 2^6]
    "mix": tuple(1 << k for k in range(7)),
    # [2^0 .. 2^8] x 0.1 ms
    "pause": tuple((1 << k) * 0.1 * MSEC for k in range(9)),
    # [2^0 .. 2^6] x 10 (with Pause fixed, e.g. 100 ms)
    "bursts": tuple((1 << k) * 10 for k in range(7)),
    # [2^0 .. 2^5] in-flight IOs (extension beyond the paper: the paper's
    # hosts are synchronous, i.e. QueueDepth = 1)
    "queue_depth": tuple(1 << k for k in range(6)),
}

#: the six baseline combinations of the Mix micro-benchmark (Table 1)
MIX_COMBOS = (
    ("SR", "RR"),
    ("SR", "RW"),
    ("SR", "SW"),
    ("RR", "SW"),
    ("RR", "RW"),
    ("SW", "RW"),
)


def table1_values(name: str):
    """The full Table 1 range for a micro-benchmark parameter."""
    if name not in _TABLE1 or _TABLE1[name] is None:
        raise PatternError(f"no canonical Table 1 range recorded for {name!r}")
    return _TABLE1[name]


@dataclass(frozen=True)
class MicroBenchmark:
    """A named collection of experiments sharing one varying parameter."""

    name: str
    parameter: str
    experiments: tuple[Experiment, ...]

    def experiment(self, label: str) -> Experiment:
        """The experiment for one baseline label (e.g. ``\"RW\"``)."""
        for experiment in self.experiments:
            if experiment.name.endswith(f"/{label}"):
                return experiment
        raise PatternError(f"micro-benchmark {self.name!r} has no experiment {label!r}")


@dataclass(frozen=True)
class BenchContext:
    """Shared run-control parameters for micro-benchmark builders."""

    capacity: int
    io_size: int = 32 * KIB
    io_count: int = 128
    io_ignore: int = 0
    seed: int = 42

    def baselines(self, io_size: int | None = None, io_count: int | None = None):
        """The four baseline specs at this context's defaults."""
        size = io_size or self.io_size
        count = io_count or self.io_count
        area = (self.capacity // size) * size
        specs = baselines(
            io_size=size,
            io_count=count,
            random_target_size=area,
            sequential_target_size=area,
            seed=self.seed,
        )
        return {
            label: spec.with_(io_ignore=min(self.io_ignore, count - 1))
            for label, spec in specs.items()
        }


BASELINE_LABELS = ("SR", "RR", "SW", "RW")


# ----------------------------------------------------------------------
# 1. Granularity (IOSize)
# ----------------------------------------------------------------------

def granularity(ctx: BenchContext, sizes: Sequence[int] | None = None) -> MicroBenchmark:
    """Vary IOSize to find the granularity the FTL favours (Fig. 6/7)."""
    values = tuple(sizes or tuple(s for s in _TABLE1["granularity"] if s <= ctx.capacity))

    def build_for(label: str) -> Callable[[int], PatternSpec]:
        def build(io_size: int) -> PatternSpec:
            return ctx.baselines(io_size=io_size)[label]

        return build

    experiments = tuple(
        Experiment(
            name=f"granularity/{label}",
            parameter="IOSize",
            values=values,
            build=build_for(label),
        )
        for label in BASELINE_LABELS
    )
    return MicroBenchmark("granularity", "IOSize", experiments)


# ----------------------------------------------------------------------
# 2. Alignment (IOShift)
# ----------------------------------------------------------------------

def alignment(ctx: BenchContext, shifts: Sequence[int] | None = None) -> MicroBenchmark:
    """Vary IOShift from 0 to IOSize (Table 1: [2^0..IOSize/512] x 512B)."""
    if shifts is None:
        shifts = [0] + [SECTOR * (1 << k) for k in range(20) if SECTOR * (1 << k) <= ctx.io_size]
    values = tuple(shifts)

    def build_for(label: str) -> Callable[[int], PatternSpec]:
        def build(io_shift: int) -> PatternSpec:
            spec = ctx.baselines()[label]
            # keep the shifted footprint on the device
            shrunk = spec.target_size
            if spec.target_offset + io_shift + shrunk > ctx.capacity:
                shrunk -= spec.io_size
            return spec.with_(io_shift=io_shift, target_size=shrunk)

        return build

    experiments = tuple(
        Experiment(
            name=f"alignment/{label}",
            parameter="IOShift",
            values=values,
            build=build_for(label),
        )
        for label in BASELINE_LABELS
    )
    return MicroBenchmark("alignment", "IOShift", experiments)


# ----------------------------------------------------------------------
# 3. Locality (TargetSize)
# ----------------------------------------------------------------------

def locality(
    ctx: BenchContext,
    multipliers_random: Sequence[int] | None = None,
    multipliers_sequential: Sequence[int] | None = None,
) -> MicroBenchmark:
    """Vary TargetSize down to IOSize (Fig. 8: random writes in a small
    area behave like sequential writes)."""
    max_mult = ctx.capacity // ctx.io_size
    random_multipliers = tuple(
        m for m in (multipliers_random or _TABLE1["locality_random"]) if m <= max_mult
    )
    seq_multipliers = tuple(
        m
        for m in (multipliers_sequential or _TABLE1["locality_sequential"])
        if m <= max_mult
    )

    def build_for(label: str) -> Callable[[int], PatternSpec]:
        def build(multiplier: int) -> PatternSpec:
            spec = ctx.baselines()[label]
            return spec.with_(target_size=multiplier * ctx.io_size)

        return build

    experiments = []
    for label in BASELINE_LABELS:
        multipliers = random_multipliers if label in ("RR", "RW") else seq_multipliers
        experiments.append(
            Experiment(
                name=f"locality/{label}",
                parameter="TargetSize",
                values=multipliers,
                build=build_for(label),
            )
        )
    return MicroBenchmark("locality", "TargetSize", tuple(experiments))


# ----------------------------------------------------------------------
# 4. Partitioning (Partitions)
# ----------------------------------------------------------------------

def partitioning(
    ctx: BenchContext, partition_counts: Sequence[int] | None = None
) -> MicroBenchmark:
    """Round-robin sequential IO over Partitions partitions (the external
    sort merge pattern).  Sequential patterns only (Table 1)."""
    values = tuple(
        p
        for p in (partition_counts or _TABLE1["partitioning"])
        if p <= ctx.io_count
    )

    def build_for(mode: Mode) -> Callable[[int], PatternSpec]:
        def build(partitions: int) -> PatternSpec:
            # target must split evenly: round io_count down per partition
            per_partition = max(1, ctx.io_count // partitions)
            target = partitions * per_partition * ctx.io_size
            return PatternSpec(
                mode=mode,
                location=LocationKind.PARTITIONED,
                io_size=ctx.io_size,
                io_count=ctx.io_count,
                io_ignore=min(ctx.io_ignore, ctx.io_count - 1),
                target_size=target,
                partitions=partitions,
                seed=ctx.seed,
            )

        return build

    experiments = tuple(
        Experiment(
            name=f"partitioning/{label}",
            parameter="Partitions",
            values=values,
            build=build_for(mode),
        )
        for label, mode in (("SR", Mode.READ), ("SW", Mode.WRITE))
    )
    return MicroBenchmark("partitioning", "Partitions", experiments)


# ----------------------------------------------------------------------
# 5. Order (Incr)
# ----------------------------------------------------------------------

def order(ctx: BenchContext, increments: Sequence[int] | None = None) -> MicroBenchmark:
    """Linear LBA increments: reverse (-1), in-place (0), gaps (>1).
    Sequential patterns only (Table 1)."""
    values = tuple(increments or _TABLE1["order"])

    def build_for(mode: Mode) -> Callable[[int], PatternSpec]:
        def build(incr: int) -> PatternSpec:
            # the ordered footprint spans |incr| * io_count IOs (modulo
            # wrap); keep it within the device
            span = max(1, abs(incr)) * ctx.io_count * ctx.io_size
            target = min(span, (ctx.capacity // ctx.io_size) * ctx.io_size)
            return PatternSpec(
                mode=mode,
                location=LocationKind.ORDERED,
                io_size=ctx.io_size,
                io_count=ctx.io_count,
                io_ignore=min(ctx.io_ignore, ctx.io_count - 1),
                target_size=target,
                incr=incr,
                seed=ctx.seed,
            )

        return build

    experiments = tuple(
        Experiment(
            name=f"order/{label}",
            parameter="Incr",
            values=values,
            build=build_for(mode),
        )
        for label, mode in (("SR", Mode.READ), ("SW", Mode.WRITE))
    )
    return MicroBenchmark("order", "Incr", experiments)


# ----------------------------------------------------------------------
# 6. Parallelism (ParallelDegree)
# ----------------------------------------------------------------------

def parallelism(ctx: BenchContext, degrees: Sequence[int] | None = None) -> MicroBenchmark:
    """Replicate each baseline over ParallelDegree processes."""
    values = tuple(degrees or _TABLE1["parallelism"])
    max_degree = max(values)

    def build_for(label: str) -> Callable[[int], ParallelSpec]:
        def build(degree: int) -> ParallelSpec:
            spec = ctx.baselines()[label]
            # the target space must split evenly among the max degree so
            # the series is comparable across degrees
            slots = (spec.target_size // spec.io_size // max_degree) * max_degree
            if slots < degree:
                raise PatternError("target space too small for this degree")
            return ParallelSpec(
                base=spec.with_(target_size=slots * spec.io_size),
                parallel_degree=degree,
            )

        return build

    experiments = tuple(
        Experiment(
            name=f"parallelism/{label}",
            parameter="ParallelDegree",
            values=values,
            build=build_for(label),
        )
        for label in BASELINE_LABELS
    )
    return MicroBenchmark("parallelism", "ParallelDegree", experiments)


# ----------------------------------------------------------------------
# 7. Mix (Ratio)
# ----------------------------------------------------------------------

def mix(ctx: BenchContext, ratios: Sequence[int] | None = None) -> MicroBenchmark:
    """Compose two baselines, Ratio primaries per secondary (six combos)."""
    values = tuple(ratios or _TABLE1["mix"])

    def build_for(primary_label: str, secondary_label: str) -> Callable[[int], MixSpec]:
        def build(ratio: int) -> MixSpec:
            half = (ctx.capacity // 2 // ctx.io_size) * ctx.io_size
            specs = baselines(
                io_size=ctx.io_size,
                io_count=ctx.io_count,
                random_target_size=half,
                seed=ctx.seed,
            )
            primary = specs[primary_label]
            secondary = specs[secondary_label].with_(target_offset=half)
            if primary.footprint[1] > half:
                primary = primary.with_(target_size=half)
            return MixSpec(
                primary=primary,
                secondary=secondary,
                ratio=ratio,
                io_count=ctx.io_count,
                io_ignore=min(ctx.io_ignore, ctx.io_count - 1),
            )

        return build

    experiments = tuple(
        Experiment(
            name=f"mix/{primary}+{secondary}",
            parameter="Ratio",
            values=values,
            build=build_for(primary, secondary),
        )
        for primary, secondary in MIX_COMBOS
    )
    return MicroBenchmark("mix", "Ratio", experiments)


# ----------------------------------------------------------------------
# 8. Pause (Pause)
# ----------------------------------------------------------------------

def pause(ctx: BenchContext, pauses_usec: Sequence[float] | None = None) -> MicroBenchmark:
    """Insert a pause between IOs: does asynchronous reclamation help?"""
    values = tuple(pauses_usec or _TABLE1["pause"])

    def build_for(label: str) -> Callable[[float], PatternSpec]:
        def build(pause_value: float) -> PatternSpec:
            from repro.core.patterns import TimingKind

            return ctx.baselines()[label].with_(
                timing=TimingKind.PAUSE, pause_usec=pause_value
            )

        return build

    experiments = tuple(
        Experiment(
            name=f"pause/{label}",
            parameter="Pause",
            values=values,
            build=build_for(label),
        )
        for label in BASELINE_LABELS
    )
    return MicroBenchmark("pause", "Pause", experiments)


# ----------------------------------------------------------------------
# 9. Bursts (Burst)
# ----------------------------------------------------------------------

def bursts(
    ctx: BenchContext,
    burst_sizes: Sequence[int] | None = None,
    pause_usec: float = 100.0 * MSEC,
) -> MicroBenchmark:
    """Pause fixed (e.g. 100 ms), vary the Burst group size: how does
    asynchronous overhead accumulate?"""
    values = tuple(burst_sizes or _TABLE1["bursts"])

    def build_for(label: str) -> Callable[[int], PatternSpec]:
        def build(burst: int) -> PatternSpec:
            from repro.core.patterns import TimingKind

            return ctx.baselines()[label].with_(
                timing=TimingKind.BURST, pause_usec=pause_usec, burst=burst
            )

        return build

    experiments = tuple(
        Experiment(
            name=f"bursts/{label}",
            parameter="Burst",
            values=values,
            build=build_for(label),
        )
        for label in BASELINE_LABELS
    )
    return MicroBenchmark("bursts", "Burst", experiments)


# ----------------------------------------------------------------------
# 10. Queue depth (QueueDepth) — extension beyond the paper
# ----------------------------------------------------------------------

def queue_depth(ctx: BenchContext, depths: Sequence[int] | None = None) -> MicroBenchmark:
    """Vary the NCQ queue depth over each baseline (extension: the
    paper's bench runs synchronously, one IO in flight).  At depth 1
    this reproduces the synchronous reference bit-for-bit; past the
    device's channel count the response-time curve should flatten."""
    values = tuple(depths or _TABLE1["queue_depth"])

    def build_for(label: str) -> Callable[[int], PatternSpec]:
        def build(depth: int) -> PatternSpec:
            return ctx.baselines()[label].with_(queue_depth=depth)

        return build

    experiments = tuple(
        Experiment(
            name=f"queue_depth/{label}",
            parameter="QueueDepth",
            values=values,
            build=build_for(label),
        )
        for label in BASELINE_LABELS
    )
    return MicroBenchmark("queue_depth", "QueueDepth", experiments)


#: registry of the micro-benchmark builders (the paper's nine plus the
#: queue-depth extension)
MICROBENCHMARKS: dict[str, Callable[..., MicroBenchmark]] = {
    "granularity": granularity,
    "alignment": alignment,
    "locality": locality,
    "partitioning": partitioning,
    "order": order,
    "parallelism": parallelism,
    "mix": mix,
    "pause": pause,
    "bursts": bursts,
    "queue_depth": queue_depth,
}


def build_microbenchmark(name: str, ctx: BenchContext, **kwargs) -> MicroBenchmark:
    """Build one of the nine micro-benchmarks plus the queue-depth
    sweep by name."""
    try:
        builder = MICROBENCHMARKS[name]
    except KeyError:
        raise PatternError(
            f"unknown micro-benchmark {name!r}; known: {', '.join(MICROBENCHMARKS)}"
        ) from None
    return builder(ctx, **kwargs)
