"""Report rendering and export."""

import json

from repro.core.experiment import Experiment, run_experiment
from repro.core.patterns import LocationKind, PatternSpec
from repro.core.report import (
    experiment_to_csv,
    experiment_to_json,
    format_table,
    render_experiment,
    render_series,
)
from repro.iotypes import Mode
from repro.units import KIB

from tests.conftest import make_device


def sample_result():
    device = make_device()

    def build(size):
        return PatternSpec(
            mode=Mode.WRITE, location=LocationKind.SEQUENTIAL,
            io_size=size, io_count=4,
        )

    experiment = Experiment("granularity/SW", "IOSize", (4 * KIB, 16 * KIB), build)
    return run_experiment(device, experiment, pause_usec=1000.0)


def test_format_table_alignment():
    text = format_table(("a", "bbbb"), [("x", 1), ("yyyy", 22)])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("-")
    # the separator row spans both columns
    assert lines[1] == "----  ----"
    assert "yyyy" in lines[3]


def test_render_experiment_contains_rows():
    text = render_experiment(sample_result())
    assert "granularity/SW" in text
    assert "IOSize" in text
    assert "mean (ms)" in text
    assert str(4 * KIB) in text


def test_render_series_shared_axis():
    text = render_series(
        "Figure 6",
        "IOSize",
        {
            "SR": ([1, 2, 3], [0.1, 0.2, 0.3]),
            "SW": ([1, 2, 3], [0.2, 0.4, 0.6]),
        },
    )
    assert "Figure 6" in text
    assert "SR" in text and "SW" in text
    assert "0.600" in text


def test_render_series_empty():
    assert render_series("t", "x", {}) == "t"


def test_csv_export():
    text = experiment_to_csv(sample_result())
    lines = text.strip().splitlines()
    assert lines[0] == "value,label,mean_usec,max_usec,repetitions"
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "SW"


def test_json_export_round_trips():
    payload = json.loads(experiment_to_json(sample_result()))
    assert payload["experiment"] == "granularity/SW"
    assert payload["parameter"] == "IOSize"
    assert len(payload["rows"]) == 2
    first = payload["rows"][0]
    assert first["repetitions"][0]["count"] == 4
    assert first["mean_usec"] > 0


def test_render_mix_run_marks_component_without_stats():
    from repro.core.patterns import MixSpec
    from repro.core.report import render_mix_run
    from repro.core.engine import execute

    device = make_device()
    primary = PatternSpec(
        mode=Mode.READ, location=LocationKind.SEQUENTIAL, io_size=4 * KIB,
        io_count=16,
    )
    secondary = PatternSpec(
        mode=Mode.WRITE, location=LocationKind.SEQUENTIAL, io_size=4 * KIB,
        io_count=16, target_offset=512 * KIB,
    )
    mix = MixSpec(
        primary=primary, secondary=secondary, ratio=7, io_count=15, io_ignore=8
    )
    run = execute(device, mix)
    text = render_mix_run(run)
    assert "overall" in text and "primary" in text and "secondary" in text
    assert "n/a" in text
    assert "io_ignore" in text  # the footnote explains the n/a rows


def test_render_mix_run_full_components_have_no_footnote():
    from repro.core.patterns import MixSpec
    from repro.core.report import render_mix_run
    from repro.core.engine import execute

    device = make_device()
    primary = PatternSpec(
        mode=Mode.READ, location=LocationKind.SEQUENTIAL, io_size=4 * KIB,
        io_count=16,
    )
    secondary = PatternSpec(
        mode=Mode.WRITE, location=LocationKind.SEQUENTIAL, io_size=4 * KIB,
        io_count=16, target_offset=512 * KIB,
    )
    run = execute(
        device, MixSpec(primary=primary, secondary=secondary, ratio=3, io_count=32)
    )
    text = render_mix_run(run)
    assert "n/a" not in text
    assert "24" in text and "8" in text  # per-component IO counts
