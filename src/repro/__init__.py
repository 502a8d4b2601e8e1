"""uFLIP: Understanding Flash IO Patterns — full reproduction.

Reproduces Bouganim, Jónsson & Bonnet, *uFLIP: Understanding Flash IO
Patterns*, CIDR 2009, on a simulated flash-device substrate:

* :mod:`repro.flashsim` — NAND chips, three FTL families, caches,
  controller, and the eleven benchmarked devices as calibrated profiles;
* :mod:`repro.core` — the uFLIP benchmark: IO pattern algebra, the nine
  micro-benchmarks, and the benchmarking methodology (state enforcement,
  two-phase analysis, interference probing, benchmark plans);
* :mod:`repro.analysis` — Table 3 derivation, device classification,
  the seven design hints, ASCII figures;
* :mod:`repro.paperdata` — the paper's reference numbers.

Quickstart::

    from repro import build_device, enforce_random_state, baselines, execute

    device = build_device("memoright")
    enforce_random_state(device)
    run = execute(device, baselines(io_count=256)["RW"])
    print(run.stats.summary())
"""

from repro.core import (
    BenchContext,
    BenchmarkPlan,
    Experiment,
    MixSpec,
    ParallelSpec,
    PatternSpec,
    baselines,
    build_microbenchmark,
    determine_pause,
    detect_phases,
    enforce_random_state,
    enforce_sequential_state,
    execute,
    measure_phases,
    rest_device,
    run_control_for,
    run_experiment,
)
from repro.flashsim import build_device, get_profile, profile_names
from repro.iotypes import CompletedIO, IORequest, Mode

__version__ = "1.0.0"

__all__ = [
    "BenchContext",
    "BenchmarkPlan",
    "CompletedIO",
    "Experiment",
    "IORequest",
    "MixSpec",
    "Mode",
    "ParallelSpec",
    "PatternSpec",
    "__version__",
    "baselines",
    "build_device",
    "build_microbenchmark",
    "determine_pause",
    "detect_phases",
    "enforce_random_state",
    "enforce_sequential_state",
    "execute",
    "get_profile",
    "measure_phases",
    "profile_names",
    "rest_device",
    "run_control_for",
    "run_experiment",
]
