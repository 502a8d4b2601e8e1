"""Generators: precomputed programs, feedback-driven scheduling,
determinism, mix interleave."""

from repro.core.generator import MixGenerator, PatternGenerator
from repro.core.patterns import (
    LocationKind,
    MixSpec,
    PatternSpec,
    TimingKind,
)
from repro.flashsim.host import SyncHost
from repro.iotypes import Mode
from repro.units import KIB, MIB

from tests.conftest import make_device


def drive(generator, start_at=0.0):
    """Run a generator's program through the synchronous host."""
    return SyncHost(make_device()).run_program(
        generator.program(), start_at=start_at
    )


def test_generator_produces_io_count_requests():
    spec = PatternSpec(
        mode=Mode.WRITE, location=LocationKind.SEQUENTIAL, io_count=7, io_size=32 * KIB
    )
    generator = PatternGenerator(spec)
    assert len(generator.program()) == 7
    assert drive(generator).column("index").tolist() == list(range(7))


def test_consecutive_schedules_at_previous_completion():
    spec = PatternSpec(
        mode=Mode.WRITE, location=LocationKind.SEQUENTIAL, io_count=4, io_size=32 * KIB
    )
    trace = drive(PatternGenerator(spec), start_at=50.0)
    scheduled = trace.column("scheduled_at").tolist()
    completed = trace.column("completed_at").tolist()
    assert scheduled == [50.0] + completed[:-1]


def test_pause_adds_gap():
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_count=3,
        io_size=32 * KIB,
        timing=TimingKind.PAUSE,
        pause_usec=40.0,
    )
    generator = PatternGenerator(spec)
    assert generator.program().gaps.tolist() == [0.0, 40.0, 40.0]
    trace = drive(generator)
    scheduled = trace.column("scheduled_at").tolist()
    completed = trace.column("completed_at").tolist()
    assert scheduled == [0.0, completed[0] + 40.0, completed[1] + 40.0]


def test_burst_gaps_between_groups():
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_count=5,
        io_size=32 * KIB,
        timing=TimingKind.BURST,
        pause_usec=1000.0,
        burst=2,
    )
    trace = drive(PatternGenerator(spec))
    scheduled = trace.column("scheduled_at").tolist()
    completed = trace.column("completed_at").tolist()
    gaps = [later - earlier for earlier, later in zip(completed, scheduled[1:])]
    assert gaps == [0.0, 1000.0, 0.0, 1000.0]


def test_random_location_deterministic_per_seed():
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_count=20,
        io_size=32 * KIB,
        target_size=2 * MIB,
        seed=7,
    )
    first = PatternGenerator(spec).program().lbas.tolist()
    second = PatternGenerator(spec).program().lbas.tolist()
    assert first == second
    different = PatternGenerator(spec.with_(seed=8)).program().lbas.tolist()
    assert first != different


def test_random_lbas_inside_target_and_aligned():
    spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_count=50,
        io_size=32 * KIB,
        target_size=2 * MIB,
    )
    for lba in PatternGenerator(spec).program().lbas.tolist():
        assert 0 <= lba < 2 * MIB
        assert lba % (32 * KIB) == 0


def test_mix_generator_interleaves_by_ratio():
    primary = PatternSpec(
        mode=Mode.READ, location=LocationKind.SEQUENTIAL, io_count=32, io_size=32 * KIB
    )
    secondary = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_count=32,
        io_size=32 * KIB,
        target_offset=4 * MIB,
    )
    spec = MixSpec(primary=primary, secondary=secondary, ratio=3, io_count=12)
    generator = MixGenerator(spec)
    program = generator.program()
    assert len(program) == 12
    assert int(program.writes.sum()) == 3  # one per group of four
    assert generator.components_array.tolist() == [0, 0, 0, 1] * 3


def test_mix_components_advance_independently():
    primary = PatternSpec(
        mode=Mode.READ, location=LocationKind.SEQUENTIAL, io_count=32, io_size=32 * KIB
    )
    secondary = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_count=32,
        io_size=32 * KIB,
        target_offset=4 * MIB,
    )
    spec = MixSpec(primary=primary, secondary=secondary, ratio=1, io_count=8)
    program = MixGenerator(spec).program()
    lbas = program.lbas.tolist()
    writes = program.writes.tolist()
    reads = [lba for lba, write in zip(lbas, writes) if not write]
    written = [lba for lba, write in zip(lbas, writes) if write]
    assert reads == [0, 32 * KIB, 64 * KIB, 96 * KIB]
    assert written == [4 * MIB + i * 32 * KIB for i in range(4)]
