"""Qualitative reproduction checks: the paper's headline shapes.

These assert *who wins, by roughly what factor, and where the
crossovers fall* — the reproduction contract for every major claim in
Section 5 — on the scaled devices.
"""

import numpy as np
import pytest

from repro.core import (
    baselines,
    detect_phases,
    enforce_random_state,
    execute,
    rest_device,
)
from repro.core.patterns import (
    LocationKind,
    MixSpec,
    ParallelSpec,
    PatternSpec,
    TimingKind,
)
from repro.flashsim import build_device
from repro.iotypes import Mode
from repro.units import KIB, MIB, SEC


def steady_mean(device, spec):
    run = execute(device, spec)
    responses = np.array(run.trace.response_times())
    cut = detect_phases(responses).startup
    rest_device(device, 30 * SEC)
    return float(responses[cut:].mean())


@pytest.fixture(scope="module")
def mtron():
    device = build_device("mtron", logical_bytes=32 * MIB)
    enforce_random_state(device)
    rest_device(device, 60 * SEC)
    return device


def specs_for(device, io_count=512):
    return baselines(
        io_size=32 * KIB,
        io_count=io_count,
        random_target_size=device.capacity,
        sequential_target_size=device.capacity,
    )


def test_reads_cheap_writes_random_expensive(mtron):
    """Figure 6's backbone: SR ~= SW << RW; reads are excellent."""
    specs = specs_for(mtron)
    sr = steady_mean(mtron, specs["SR"])
    sw = steady_mean(mtron, specs["SW"])
    rw = steady_mean(mtron, specs["RW"])
    assert sw < 2.5 * sr
    assert rw > 8 * sw


def test_random_write_oscillation(mtron):
    """Figure 3: random writes oscillate between cheap writes and
    expensive reclamation, with a start-up phase on high-end SSDs."""
    specs = specs_for(mtron, io_count=768)
    run = execute(mtron, specs["RW"])
    rest_device(mtron, 60 * SEC)
    phases = detect_phases(run.trace.response_times())
    assert phases.has_startup
    assert phases.oscillates
    assert phases.expensive_level_usec > 10 * phases.cheap_level_usec


def test_underestimated_iocount_distorts_results(mtron):
    """Section 4.2's pitfall: measuring only the start-up phase
    underestimates random-write cost."""
    specs = specs_for(mtron, io_count=768)
    run = execute(mtron, specs["RW"])
    rest_device(mtron, 60 * SEC)
    responses = run.trace.response_times()
    startup = detect_phases(responses).startup
    short_mean = np.mean(responses[: max(8, startup // 2)])
    true_mean = np.mean(responses[startup:])
    assert short_mean < 0.5 * true_mean


def test_out_of_box_pitfall():
    """Section 4.1: out-of-the-box random writes look great; after the
    device has been written once, they degrade dramatically (Samsung:
    almost an order of magnitude)."""
    device = build_device("samsung", logical_bytes=32 * MIB)
    fresh_spec = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=256,
        target_size=device.capacity,
    )
    out_of_box = execute(device, fresh_spec).stats.mean_usec
    enforce_random_state(device)
    rest_device(device, 30 * SEC)
    enforced = steady_mean(device, fresh_spec.with_(seed=77, io_count=512))
    assert enforced > 4 * out_of_box


def test_locality_helps_random_writes(mtron):
    """Figure 8: random writes confined to a small area cost close to
    sequential writes; over the whole device they do not."""
    sw = steady_mean(mtron, specs_for(mtron)["SW"])
    focused = steady_mean(
        mtron,
        PatternSpec(
            mode=Mode.WRITE,
            location=LocationKind.RANDOM,
            io_size=32 * KIB,
            io_count=512,
            target_size=4 * MIB,
        ),
    )
    wide = steady_mean(mtron, specs_for(mtron)["RW"])
    assert focused < 4 * sw
    assert wide > 2.5 * focused


def test_pause_absorbs_reclamation_on_high_end(mtron):
    """Table 3's Pause column: inserting a pause equal to the RW cost
    makes random writes respond like sequential writes — on devices
    with asynchronous reclamation."""
    specs = specs_for(mtron)
    rw = steady_mean(mtron, specs["RW"])
    sw = steady_mean(mtron, specs["SW"])
    paused = steady_mean(
        mtron,
        specs["RW"].with_(timing=TimingKind.PAUSE, pause_usec=rw, seed=5),
    )
    assert paused < 3 * sw
    assert paused < rw / 3


def test_pause_does_not_help_low_end():
    device = build_device("kingston_dti", logical_bytes=16 * MIB)
    enforce_random_state(device)
    rest_device(device, 30 * SEC)
    specs = baselines(
        io_size=32 * KIB, io_count=128,
        random_target_size=device.capacity,
        sequential_target_size=device.capacity,
    )
    rw = steady_mean(device, specs["RW"])
    paused = steady_mean(
        device,
        specs["RW"].with_(timing=TimingKind.PAUSE, pause_usec=rw, seed=5),
    )
    assert paused > 0.7 * rw  # no benefit


def test_pause_saves_no_total_time(mtron):
    """Section 5.2: no true response-time savings — the total workload
    time with pauses is no shorter."""
    specs = specs_for(mtron, io_count=256)
    plain = execute(mtron, specs["RW"])
    plain_span = plain.trace[-1].completed_at - plain.trace[0].submitted_at
    rest_device(mtron, 60 * SEC)
    paused_spec = specs["RW"].with_(
        timing=TimingKind.PAUSE, pause_usec=8_000.0, seed=5
    )
    paused = execute(mtron, paused_spec)
    paused_span = paused.trace[-1].completed_at - paused.trace[0].submitted_at
    rest_device(mtron, 60 * SEC)
    assert paused_span >= plain_span * 0.9


def test_in_place_pathological_on_blockmap():
    """Table 3: in-place writes cost x40+ on the Kingston DTI."""
    device = build_device("kingston_dti", logical_bytes=16 * MIB)
    enforce_random_state(device)
    rest_device(device, 30 * SEC)
    sw = steady_mean(
        device,
        PatternSpec(
            mode=Mode.WRITE,
            location=LocationKind.SEQUENTIAL,
            io_size=32 * KIB,
            io_count=128,
        ),
    )
    # fill the target block completely first (a database page update
    # rewrites a page inside a fully populated block)
    block = device.geometry.block_size
    execute(
        device,
        PatternSpec(
            mode=Mode.WRITE,
            location=LocationKind.SEQUENTIAL,
            io_size=32 * KIB,
            io_count=block // (32 * KIB),
            target_offset=8 * MIB,
        ),
    )
    rest_device(device, 10 * SEC)
    in_place = steady_mean(
        device,
        PatternSpec(
            mode=Mode.WRITE,
            location=LocationKind.ORDERED,
            incr=0,
            io_size=32 * KIB,
            io_count=128,
            target_size=32 * KIB,
            target_offset=8 * MIB,
        ),
    )
    assert in_place > 20 * sw


def test_mix_neutrality(mtron):
    """Section 5.2: mixes do not blow up the combined cost (unlike
    disks, where mixing patterns is catastrophic)."""
    half = (mtron.capacity // 2 // (32 * KIB)) * 32 * KIB
    specs = baselines(
        io_size=32 * KIB, io_count=256, random_target_size=half,
        sequential_target_size=half,
    )
    sr = steady_mean(mtron, specs["SR"])
    rr = steady_mean(mtron, specs["RR"].with_(target_offset=half))
    mix = execute(
        mtron,
        MixSpec(
            primary=specs["SR"],
            secondary=specs["RR"].with_(target_offset=half),
            ratio=1,
            io_count=256,
        ),
    )
    rest_device(mtron, 30 * SEC)
    expected = (sr + rr) / 2
    assert mix.stats.mean_usec == pytest.approx(expected, rel=0.3)


def test_parallelism_gains_nothing(mtron):
    """Section 5.2 / Hint 7: parallel submission does not improve
    throughput on flash."""
    base = PatternSpec(
        mode=Mode.READ,
        location=LocationKind.RANDOM,
        io_size=32 * KIB,
        io_count=256,
        target_size=(mtron.capacity // (32 * KIB) // 4) * 4 * 32 * KIB,
    )
    solo = execute(mtron, base)
    solo_span = solo.trace[-1].completed_at - solo.trace[0].submitted_at
    rest_device(mtron, 30 * SEC)
    par = execute(mtron, ParallelSpec(base=base, parallel_degree=4))
    par_span = max(r.trace[-1].completed_at for r in par.runs) - min(
        r.trace[0].submitted_at for r in par.runs
    )
    rest_device(mtron, 30 * SEC)
    assert par_span >= solo_span * 0.95


def test_high_end_beats_low_end_everywhere():
    """Section 5.3's second conclusion, at the 32 KiB operating point."""
    results = {}
    for name in ("memoright", "kingston_dti"):
        device = build_device(name, logical_bytes=16 * MIB)
        enforce_random_state(device)
        rest_device(device, 30 * SEC)
        specs = baselines(
            io_size=32 * KIB, io_count=192,
            random_target_size=device.capacity,
            sequential_target_size=device.capacity,
        )
        results[name] = {
            label: steady_mean(device, spec) for label, spec in specs.items()
        }
    for label in ("SR", "RR", "SW", "RW"):
        assert results["memoright"][label] < results["kingston_dti"][label]
    # and the gap explodes for random writes (x5 vs x50+)
    assert results["kingston_dti"]["RW"] > 20 * results["memoright"]["RW"]
