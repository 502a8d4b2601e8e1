"""The hot-path benchmark's twin gate (``tools/bench_hotpath.py``).

No workload may run more than ``FALLBACK_LIMIT`` times slower than its
``/fallback`` twin (the kernels declined) or its ``/oracle`` twin (the
scalar reference on a ``NoFaults`` chip).  ``/fallback`` twins are
checked only where the kernels served the plain run, and the ``SR``/``RR``
``/oracle`` twins only on families with batch reads.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest


def _bench_hotpath():
    spec = importlib.util.spec_from_file_location(
        "bench_hotpath",
        pathlib.Path(__file__).parent.parent / "tools" / "bench_hotpath.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("suffix", ("fallback", "oracle"))
def test_a_workload_losing_to_its_twin_fails_the_gate(tmp_path, suffix):
    bench = _bench_hotpath()
    results = {
        "memoright/RW": {"usec_per_io": 17.0},
        f"memoright/RW/{suffix}": {"usec_per_io": 17.0},
    }
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(results))
    assert bench.check_baseline(results, baseline) == []
    slow = 17.0 * bench.FALLBACK_LIMIT * 1.01
    results["memoright/RW"] = {"usec_per_io": slow}
    assert bench.check_baseline(results, baseline) == [
        f"memoright: RW {slow / 17.0:.2f}x slower than RW/{suffix} "
        f"(> {bench.FALLBACK_LIMIT}x)"
    ]


def test_fallback_twins_are_gated_only_where_the_kernels_served(tmp_path):
    # where every program declined the kernels, the plain key and its
    # /fallback twin ran the same per-IO code: a gap is noise
    bench = _bench_hotpath()
    slow = 17.0 * bench.FALLBACK_LIMIT * 1.5
    results = {
        "kingston_dti/run_RW": {"usec_per_io": slow, "kernel_ios": 0},
        "kingston_dti/run_RW/fallback": {"usec_per_io": 17.0},
        "ideal_pagemap/run_RW": {"usec_per_io": slow, "kernel_ios": 128},
        "ideal_pagemap/run_RW/fallback": {"usec_per_io": 17.0},
    }
    baseline = tmp_path / "baseline.json"
    baseline.write_text("{}")
    assert bench.check_baseline(results, baseline) == [
        f"ideal_pagemap: run_RW {slow / 17.0:.2f}x slower than "
        f"run_RW/fallback (> {bench.FALLBACK_LIMIT}x)"
    ]


def test_oracle_read_twins_are_gated_only_on_batch_read_families(tmp_path):
    # a hybrid reads page by page on both sides of its SR/RR oracle twins,
    # so only noise separates them; its enforce, SW and RW twins run the
    # merge copies against the scalar loop and stay gated, as do the
    # reads of the batch-reading page map and block map
    bench = _bench_hotpath()
    slow = 17.0 * bench.FALLBACK_LIMIT * 1.5
    results = {}
    for profile in ("memoright", "corsair", "ideal_pagemap", "kingston_dti"):
        for name in ("enforce", "SR", "RR", "SW", "RW"):
            results[f"{profile}/{name}"] = {"usec_per_io": slow}
            results[f"{profile}/{name}/oracle"] = {"usec_per_io": 17.0}
    baseline = tmp_path / "baseline.json"
    baseline.write_text("{}")
    gated = [line.split(" ", 2)[:2] for line in bench.check_baseline(results, baseline)]
    assert gated == [
        [f"{profile}:", name]
        for profile in ("corsair", "ideal_pagemap", "kingston_dti", "memoright")
        for name in (
            ("enforce", "SR", "RR", "SW", "RW")
            if profile in ("ideal_pagemap", "kingston_dti")
            else ("enforce", "SW", "RW")
        )
    ]


def test_fallback_twins_run_no_kernel():
    # a /fallback twin that still ran a kernel would time the kernel
    # against itself; the burst, pause, queued and parallel runs are
    # served when on
    from repro.core.engine import Engine
    from repro.flashsim import analytic
    from repro.flashsim.profiles import build_device
    from repro.units import MIB

    bench = _bench_hotpath()
    specs = bench._run_specs(4 * MIB, 64)
    for name in ("run_parallel", "run_burst", "run_pause", "run_RW_qd32"):
        for kernels in (True, False):
            engine = Engine(build_device("ideal_pagemap", logical_bytes=4 * MIB))
            before = bench._kernel_ios()
            if kernels:
                engine.run(specs[name])
            else:
                with bench._kernels_declined():
                    engine.run(specs[name])
            assert (bench._kernel_ios() > before) is kernels, (name, kernels)
    for name in ("program_stretches", "run_program_queued"):
        assert getattr(analytic, name).__name__ == name, name
