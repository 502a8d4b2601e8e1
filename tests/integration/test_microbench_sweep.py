"""Execution sweep: every experiment of all nine micro-benchmarks runs
end to end against real devices (small value subsets).

The builder unit tests check spec shapes; this sweep guarantees that
every builder's output actually *executes* — target spaces fit, timing
functions schedule, mixes interleave, parallel specs split — on both a
hybrid and a block-mapped device.
"""

import pytest

from repro.core import BenchContext, build_microbenchmark, execute, rest_device
from repro.core.microbench import MICROBENCHMARKS
from repro.units import KIB, MSEC, SEC

from tests.conftest import make_device

#: small value subsets per micro-benchmark (full Table 1 ranges are
#: exercised by the benchmarks directory)
SMALL_VALUES = {
    "granularity": {"sizes": (4 * KIB, 32 * KIB)},
    "alignment": {"shifts": (0, 512)},
    "locality": {
        "multipliers_random": (4, 16),
        "multipliers_sequential": (4,),
    },
    "partitioning": {"partition_counts": (1, 4)},
    "order": {"increments": (-1, 0, 2)},
    "parallelism": {"degrees": (1, 2)},
    "mix": {"ratios": (2,)},
    "pause": {"pauses_usec": (0.5 * MSEC,)},
    "bursts": {"burst_sizes": (4,), "pause_usec": 10.0 * MSEC},
    "queue_depth": {"depths": (1, 4)},
}


@pytest.fixture(scope="module")
def sweep_devices():
    return {
        "hybrid": make_device(),
        "blockmap": make_device(ftl_kind="blockmap"),
    }


@pytest.mark.parametrize("name", sorted(MICROBENCHMARKS))
@pytest.mark.parametrize("kind", ("hybrid", "blockmap"))
def test_microbenchmark_executes(name, kind, sweep_devices):
    device = sweep_devices[kind]
    ctx = BenchContext(
        capacity=device.capacity, io_size=16 * KIB, io_count=16, seed=3
    )
    bench = build_microbenchmark(name, ctx, **SMALL_VALUES[name])
    for experiment in bench.experiments:
        for value in experiment.values:
            spec = experiment.spec_for(value)
            run = execute(device, spec)
            stats = run.stats
            assert stats is not None and stats.count > 0, (name, value)
            assert stats.mean_usec > 0
            rest_device(device, 1 * SEC)
    device.check_invariants()
