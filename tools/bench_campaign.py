#!/usr/bin/env python
"""Wall-clock benchmark of multi-profile campaign dispatch.

Times the same multi-profile campaign two ways (DESIGN.md §14):

* **sequential**: ``jobs=1`` — the bit-identical reference;
* **warm**: the parallel dispatch — the parent enforces each group and
  submits its cells before enforcing the next, workers restore from
  zero-copy shared-memory snapshots and reuse resident devices.

The campaign is deliberately **distribution-bound**: a large
page-mapped SSD state (multi-MiB snapshot, cheap closed-form
enforcement) swept across many short cells, plus a small hybrid-FTL
USB-stick group for multi-profile coverage.  Short cells are the point,
not a cheat — per-cell simulation cost is identical across strategies,
so padding it would only dilute the quantity this benchmark exists to
measure: the per-cell cost of handing device state to a worker.

Each strategy is timed best-of-``--repeat`` on a fresh executor (fresh
StatePool, no run cache), so every repetition pays the full cold-start
cost the dispatch machinery is meant to hide.  The warm pass records
its scheduler counters (warm hits, snapshot segments, snapshot bytes
shipped vs saved) and the resulting **warm ratio** — the fraction of
dispatched cells served by a resident warm device.  Payload equality
between the two is asserted on every run, so a dispatch bug
fails the benchmark rather than producing fast-but-wrong numbers.

Usage::

    python tools/bench_campaign.py --out BENCH_campaign.json
    python tools/bench_campaign.py --quick --jobs 2 --baseline BENCH_campaign.json

With ``--baseline``, the run fails (exit 1) if the warm ratio drops
below half the committed value, or if the warm path starts shipping
snapshot bytes through the pool pipe again.  Both gates compare
machine-independent scheduler counters — they trip when the warm
machinery stops engaging, not on a slow CI runner (absolute times and
speedups vary with core count; this container may even be single-core,
where the warm win comes purely from eliminated serialization work).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.executor import CampaignExecutor, plan_cells  # noqa: E402
from repro.units import KIB, MIB, SEC  # noqa: E402

#: the campaign mix: (profile, capacity MiB, benchmarks, io_sizes KiB).
#: ``ideal_pagemap`` carries the distribution load (its page-mapped
#: snapshot is multi-MiB while closed-form enforcement stays cheap);
#: ``kingston_dti`` adds a second, hybrid-FTL profile, so the parent
#: enforces it while the first group's cells run, and per-group
#: affinity is exercised across groups.
DEFAULT_CAMPAIGN = (
    (
        "ideal_pagemap",
        2048,
        ("pause", "queue_depth", "partitioning"),
        (4, 8, 12, 16, 24, 32, 48, 64, 96, 128),
    ),
    ("kingston_dti", 64, ("pause",), (16, 32)),
)

#: scaled-down mix for CI smoke runs (--quick)
QUICK_CAMPAIGN = (
    (
        "ideal_pagemap",
        128,
        ("pause", "queue_depth", "partitioning"),
        (16, 32, 64),
    ),
    ("kingston_dti", 16, ("pause",), (16, 32)),
)

#: fraction of the committed warm ratio a gated run must retain; the
#: ratio is a pure scheduler-counter quantity, so a drop below this
#: means warm scheduling stopped engaging, not that the runner is slow
RATIO_RETENTION = 0.5

#: IOs per cell — short on purpose; see the module docstring
IO_COUNT = 4


def campaign_cells(quick: bool) -> list:
    """The benchmark campaign's cell list."""
    mix = QUICK_CAMPAIGN if quick else DEFAULT_CAMPAIGN
    cells = []
    for profile, capacity_mib, benchmarks, io_sizes in mix:
        for io_size_kib in io_sizes:
            cells.extend(
                plan_cells(
                    profile,
                    capacity_mib * MIB,
                    list(benchmarks),
                    io_size=io_size_kib * KIB,
                    io_count=IO_COUNT,
                    pause_usec=0.1 * SEC,
                )
            )
    return cells


def _payloads(outcomes) -> dict:
    return {
        (o.cell.profile, o.cell.capacity, o.cell.experiment): o.payload
        for o in outcomes
    }


def time_strategy(
    cells: list, jobs: int, repeat: int
) -> tuple[float, dict, dict]:
    """Best-of-``repeat`` wall time at ``jobs`` workers (1 = sequential).

    Every repetition uses a fresh executor (fresh StatePool, no cache),
    so each one pays the full enforcement cost — exactly the cold
    campaign the dispatch machinery is meant to accelerate.  Returns
    ``(best_seconds, sched_stats_of_best, payloads_of_best)``.
    """
    best = float("inf")
    sched: dict = {}
    payloads: dict = {}
    for _ in range(max(repeat, 1)):
        executor = CampaignExecutor(jobs=jobs)
        try:
            start = time.perf_counter()
            outcomes = executor.execute(cells)
            elapsed = time.perf_counter() - start
        finally:
            executor.close()
        if elapsed < best:
            best = elapsed
            sched = executor.sched.as_dict()
            payloads = _payloads(outcomes)
    return best, sched, payloads


def run_benchmark(quick: bool, jobs: int, repeat: int) -> dict:
    """Time both strategies and assemble the results document."""
    cells = campaign_cells(quick)
    mix = QUICK_CAMPAIGN if quick else DEFAULT_CAMPAIGN
    print(
        f"campaign: {len(cells)} cells over {len(mix)} profiles, "
        f"jobs={jobs}, repeat={repeat}",
        flush=True,
    )

    print("timing sequential (jobs=1) ...", flush=True)
    seq_sec, _, seq_payloads = time_strategy(cells, 1, repeat=repeat)
    print(f"  {seq_sec:.3f} s", flush=True)

    print(f"timing warm dispatch (jobs={jobs}) ...", flush=True)
    warm_sec, warm_sched, warm_payloads = time_strategy(cells, jobs, repeat=repeat)
    print(f"  {warm_sec:.3f} s", flush=True)

    # correctness before speed: both strategies must agree bit-for-bit,
    # else the timing numbers are meaningless
    assert warm_payloads == seq_payloads, "warm dispatch diverged from jobs=1"

    dispatched = warm_sched["warm_hits"] + warm_sched["cold_builds"]
    warm_ratio = warm_sched["warm_hits"] / max(dispatched, 1)
    return {
        "campaign": {
            "mix": [
                {
                    "profile": profile,
                    "capacity_mib": capacity_mib,
                    "benchmarks": list(benchmarks),
                    "io_sizes_kib": list(io_sizes),
                }
                for profile, capacity_mib, benchmarks, io_sizes in mix
            ],
            "cells": len(cells),
            "io_count": IO_COUNT,
            "jobs": jobs,
            "repeat": repeat,
            "quick": quick,
        },
        "sequential": {"wall_sec": round(seq_sec, 4)},
        "warm": {
            "wall_sec": round(warm_sec, 4),
            **warm_sched,
        },
        "warm_ratio": round(warm_ratio, 4),
        "speedup_vs_sequential": round(seq_sec / max(warm_sec, 1e-9), 2),
    }


def check_baseline(results: dict, baseline_path: Path) -> list[str]:
    """Machine-independent regressions against the committed numbers."""
    baseline = json.loads(baseline_path.read_text())
    regressions = []
    old_ratio = baseline.get("warm_ratio", 0)
    new_ratio = results["warm_ratio"]
    if new_ratio < RATIO_RETENTION * old_ratio:
        regressions.append(
            f"warm ratio {new_ratio:.3f} vs baseline {old_ratio:.3f} "
            f"(< {RATIO_RETENTION}x retention): warm scheduling stopped engaging"
        )
    if results["warm"].get("bytes_shipped", 0) > 0:
        regressions.append(
            f"warm dispatch shipped {results['warm']['bytes_shipped']} "
            "snapshot bytes through the pool pipe (expected 0)"
        )
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="scaled-down campaign (128 MiB state) for CI",
    )
    parser.add_argument(
        "--jobs", type=int, default=4, help="worker count for parallel passes"
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="repetitions per strategy; the minimum time is reported",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="write results JSON here"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed BENCH_campaign.json to gate against",
    )
    args = parser.parse_args(argv)

    results = run_benchmark(args.quick, args.jobs, args.repeat)
    print(json.dumps(results, indent=2))
    print(
        f"warm dispatch: {results['speedup_vs_sequential']}x vs jobs=1, "
        f"warm ratio {results['warm_ratio']}"
    )

    if args.out:
        args.out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.out}")

    if args.baseline:
        if not args.baseline.exists():
            print(f"baseline {args.baseline} missing; skipping gate")
        else:
            regressions = check_baseline(results, args.baseline)
            if regressions:
                print("PERF REGRESSION:")
                for line in regressions:
                    print(f"  {line}")
                return 1
            print("campaign perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
