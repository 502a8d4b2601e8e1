"""Mix micro-benchmark (Section 5.2).

Paper observation: *the Mix patterns did not affect significantly the
overall cost of the workloads* — the mixed cost is close to the
ratio-weighted combination of the baselines.  Very different from hard
disks, where mixing patterns thrashes the arm.

Pitfall check (Section 4.2): a read-mostly mix with a short IOCount
only ever sees the cheap start-up random writes and wrongly concludes
that reads absorb the write cost.
"""

import numpy as np

from repro.core import (
    BenchContext,
    baselines,
    build_microbenchmark,
    detect_phases,
    execute,
    rest_device,
    run_experiment,
)
from repro.core.microbench import MIX_COMBOS
from repro.core.report import format_table
from repro.units import KIB, SEC

from conftest import ready_device, report


def steady(device, spec):
    run = execute(device, spec)
    responses = np.array(run.trace.response_times())
    cut = detect_phases(responses).startup
    rest_device(device, 30 * SEC)
    return float(responses[cut:].mean())


def test_mix_is_cost_additive(once):
    device = ready_device("mtron")
    half = (device.capacity // 2 // (32 * KIB)) * 32 * KIB
    specs = baselines(
        io_size=32 * KIB,
        io_count=512,
        random_target_size=half,
        sequential_target_size=half,
    )
    base_cost = {
        label: steady(device, specs[label].with_(seed=3))
        for label in ("SR", "RR", "SW", "RW")
    }

    def run_mixes():
        rows = []
        for experiment_index, (primary_label, secondary_label) in enumerate(
            MIX_COMBOS
        ):
            for ratio in (1, 4):
                # the FlashIO tool scales IOIgnore and IOCount for mixed
                # workloads (Section 5.1): the rarer component must still
                # get past its own start-up phase
                scale = ratio + 1
                ctx = BenchContext(
                    capacity=device.capacity,
                    io_size=32 * KIB,
                    io_count=scale * 260,
                    io_ignore=scale * 170,
                )
                bench = build_microbenchmark("mix", ctx, ratios=(ratio,))
                experiment = bench.experiments[experiment_index]
                mix = experiment.spec_for(ratio)
                result = execute(device, mix)
                rest_device(device, 30 * SEC)
                expected = (
                    ratio * base_cost[primary_label] + base_cost[secondary_label]
                ) / (ratio + 1)
                rows.append(
                    (
                        f"{ratio} {primary_label} / 1 {secondary_label}",
                        f"{result.stats.mean_usec / 1000:.2f}",
                        f"{expected / 1000:.2f}",
                        f"{result.stats.mean_usec / expected:.2f}",
                    )
                )
        return rows

    rows = once(run_mixes)
    text = format_table(
        ("mix", "measured (ms)", "weighted baselines (ms)", "ratio"), rows
    )
    text += "\npaper: mixes do not significantly affect overall cost"
    report("Mix micro-benchmark: measured vs weighted baselines (Mtron)", text)

    assert len(rows) == 2 * len(MIX_COMBOS)
    ratios = [float(row[3]) for row in rows]
    # every mix within 2x of additive, and most within 50%
    assert all(0.4 <= r <= 2.1 for r in ratios), ratios
    assert np.median(ratios) < 1.5


def test_short_read_mostly_mix_pitfall(once):
    """Section 4.2: Ratio > 4 with IOCount 512 only measures the cheap
    start-up random writes — the write cost seems to vanish."""
    device = ready_device("mtron")
    half = (device.capacity // 2 // (32 * KIB)) * 32 * KIB
    specs = baselines(
        io_size=32 * KIB, io_count=2048,
        random_target_size=half, sequential_target_size=half, seed=9,
    )
    rw_true = steady(device, specs["RW"].with_(io_count=768))

    from repro.core.patterns import MixSpec

    def run_short_mix():
        mix = MixSpec(
            primary=specs["RR"],
            secondary=specs["RW"].with_(target_offset=half),
            ratio=8,
            io_count=512,
        )
        return execute(device, mix)

    result = once(run_short_mix)
    rest_device(device, 60 * SEC)
    seen_write_cost = result.secondary_stats.mean_usec
    text = (
        f"true steady RW cost:            {rw_true / 1000:.2f} ms\n"
        f"RW cost seen by a 512-IO 8:1 read-mostly mix: "
        f"{seen_write_cost / 1000:.2f} ms\n"
        "paper: with Ratio > 4 and IOCount 512 the measurements only\n"
        "capture the initial, very cheap random writes — a trap"
    )
    report("Mix pitfall: short read-mostly mixes underestimate writes", text)
    # the short mix sees less than half the true random-write cost
    assert seen_write_cost < 0.5 * rw_true
