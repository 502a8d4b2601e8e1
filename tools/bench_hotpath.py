#!/usr/bin/env python
"""Wall-clock benchmark of the controller→FTL→chip hot path.

Measures simulator throughput — not simulated device latency — for the
two phases that dominate real campaign time:

* **enforce**: random-state enforcement (random sector-aligned writes
  covering the whole device, Section 4.1 methodology), the workload the
  vectorized run kernel targets;
* **SR/RR/SW/RW**: the four baseline patterns of Section 3.1;
* **run_RR_qd{1,4,32}**: a random-read sweep over NCQ queue depths
  through the engine's queued host; each entry also carries the
  *simulated* ``device_iops``, which should scale with depth up to the
  profile's channel count.
* **run_RW_gc / run_RR_qd32_analytic**: the closed-form kernel
  workloads — GC-crossing random writes on an enforced device (the
  GC-epoch kernel) and a depth-32 random-read run (the queued
  completion kernel), each with a ``/fallback`` twin forced through
  the hosts' per-IO reference loops.
* **enforce/oracle**: on merge-based profiles (hybrid, block-map,
  FAST), enforcement on a device built with a never-failing fault
  injector, which sends block copies, merges and log appends through
  their scalar per-page reference loops.

Each workload is timed twice per profile: once with the batch paths on
(the default) and once forced through the scalar per-page reference
path, so the speedup is visible in one report.  Results are written as
``{workload: {"usec_per_io": ..., "sim_ios_per_sec": ...}}`` where
workload keys look like ``ideal_pagemap/enforce`` (batch) and
``ideal_pagemap/enforce/scalar``.

Usage::

    python tools/bench_hotpath.py --quick --out BENCH_hotpath.json
    python tools/bench_hotpath.py --quick --baseline BENCH_hotpath.json

With ``--baseline``, the run fails (exit 1) if any shared workload's
``usec_per_io`` regresses more than 2x against the committed numbers,
or if a profile's enforce, enforce-vs-oracle or GC-epoch *speedup* (the
slow-path/fast-path ratio, which is largely machine-independent) drops
below its gate's share of the committed ratio (``SPEEDUP_GATES``) —
the CI perf-smoke gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.engine import Engine  # noqa: E402
from repro.flashsim import analytic  # noqa: E402
from repro.flashsim.chip import NoFaults  # noqa: E402
from repro.core.methodology import enforce_random_state  # noqa: E402
from repro.core.patterns import (  # noqa: E402
    LocationKind,
    MixSpec,
    ParallelSpec,
    PatternSpec,
    baselines,
)
from repro.core.runner import execute  # noqa: E402
from repro.flashsim.ftl.pagemap import PageMapConfig  # noqa: E402
from repro.flashsim.profiles import (  # noqa: E402
    build_device,
    get_profile,
    profile_names,
    scaled_profile,
)
from repro.flashsim.recorder import FlightRecorder  # noqa: E402
from repro.flashsim.trace import pickled_sizes  # noqa: E402
from repro.iotypes import Mode  # noqa: E402
from repro.units import KIB, MIB  # noqa: E402

#: baseline-pattern order follows the paper's Table 3 columns
PATTERN_ORDER = ("SR", "RR", "SW", "RW")

#: regression gate used by --baseline (CI perf smoke)
REGRESSION_FACTOR = 2.0

#: fraction of the committed speedup (slow-path over fast-path
#: usec/io) a gated run must retain.  Unlike raw usec_per_io the ratio
#: cancels out machine speed, so a drop below this almost always means
#: the batch or analytic fast path stopped engaging, not a slow runner.
SPEEDUP_RETENTION = 0.5

#: speedup-gated workloads: (fast key stem, slow-twin suffix, share of
#: the committed ratio a run must retain).  The enforce/scalar ratio
#: pins the vectorized write kernel; the run_RW_gc ratio pins the
#: GC-epoch kernel (its fallback twin runs the per-IO reference loop
#: with the batch controller paths still on).  The enforce/oracle ratio
#: pins the block-copy and log-append fast paths of the merge-based
#: families; it is only 1.3-1.8x at the quick config, so half of it
#: would still pass with the fast paths off (ratio 1.0) — its
#: retention is set to trip there.
SPEEDUP_GATES = (
    ("enforce", "scalar", SPEEDUP_RETENTION),
    ("enforce", "oracle", 0.85),
    ("run_RW_gc", "fallback", SPEEDUP_RETENTION),
)

DEFAULT_PROFILES = ("ideal_pagemap", "memoright", "kingston_dti")


def _set_batch(device, enabled: bool) -> None:
    device.controller.batch_enabled = enabled
    device.ftl.batch_enabled = enabled


def _entry(elapsed_sec: float, io_count: int) -> dict[str, float]:
    elapsed_sec = max(elapsed_sec, 1e-9)
    return {
        "usec_per_io": round(elapsed_sec * 1e6 / max(io_count, 1), 3),
        "sim_ios_per_sec": round(max(io_count, 1) / elapsed_sec, 1),
    }


def _warm_up(profile: str) -> None:
    """Trigger numpy's lazy submodule imports (np.ma via np.unique) and
    fill code caches on a throwaway device, so they don't land inside
    the first timed workload."""
    import numpy as np

    np.unique(np.arange(4))
    for batch in (True, False):
        device = build_device(profile, logical_bytes=MIB)
        _set_batch(device, batch)
        enforce_random_state(device)


def bench_profile(
    profile: str, logical_bytes: int, io_count: int, batch: bool, repeat: int
) -> dict[str, dict[str, float]]:
    """Best-of-``repeat`` timings of enforcement and the four baselines.

    Each repetition runs the full workload sequence on a fresh device
    (the sequence is deterministic, so repetitions are identical work);
    the minimum elapsed time per workload is reported, which is robust
    against scheduler noise on shared machines.
    """
    suffix = "" if batch else "/scalar"
    best_sec: dict[str, float] = {}
    ios: dict[str, int] = {}
    specs = baselines(
        io_size=16 * KIB,
        io_count=io_count,
        random_target_size=logical_bytes,
        sequential_target_size=logical_bytes,
    )
    for _ in range(max(repeat, 1)):
        device = build_device(profile, logical_bytes=logical_bytes)
        _set_batch(device, batch)

        start = time.perf_counter()
        report = enforce_random_state(device)
        elapsed = time.perf_counter() - start
        key = f"{profile}/enforce{suffix}"
        best_sec[key] = min(best_sec.get(key, elapsed), elapsed)
        ios[key] = report.io_count

        for name in PATTERN_ORDER:
            start = time.perf_counter()
            execute(device, specs[name])
            elapsed = time.perf_counter() - start
            key = f"{profile}/{name}{suffix}"
            best_sec[key] = min(best_sec.get(key, elapsed), elapsed)
            ios[key] = io_count
    return {key: _entry(sec, ios[key]) for key, sec in best_sec.items()}


def bench_oracle(
    profile: str, logical_bytes: int, repeat: int
) -> dict[str, dict[str, float]]:
    """Best-of-``repeat`` enforcement on the scalar oracle device.

    The device carries a never-failing fault injector
    (:class:`~repro.flashsim.chip.NoFaults`): simulated results are
    unchanged, but every block copy, merge and hybrid log append takes
    its scalar per-page loop.  Only merge-based profiles get the twin —
    on a page-mapped one the ``/scalar`` twin already covers it.
    """
    if get_profile(profile).ftl_kind == "pagemap":
        return {}
    best = float("inf")
    io_count = 0
    for _ in range(max(repeat, 1)):
        device = build_device(
            profile, logical_bytes=logical_bytes, fault_injector=NoFaults()
        )
        start = time.perf_counter()
        report = enforce_random_state(device)
        best = min(best, time.perf_counter() - start)
        io_count = report.io_count
    return {f"{profile}/enforce/oracle": _entry(best, io_count)}


def _run_specs(logical_bytes: int, io_count: int) -> dict[str, object]:
    """The measured-run workloads: four baselines, a mix, a parallel."""
    specs = baselines(
        io_size=16 * KIB,
        io_count=io_count,
        random_target_size=logical_bytes // 2,
        sequential_target_size=logical_bytes // 2,
    )
    half = logical_bytes // 2
    primary = PatternSpec(
        mode=Mode.READ,
        location=LocationKind.RANDOM,
        io_size=16 * KIB,
        io_count=io_count,
        target_size=half,
    )
    secondary = PatternSpec(
        mode=Mode.WRITE,
        location=LocationKind.SEQUENTIAL,
        io_size=16 * KIB,
        io_count=io_count,
        target_offset=half,
        target_size=half,
    )
    workloads: dict[str, object] = {
        f"run_{name}": specs[name] for name in PATTERN_ORDER
    }
    workloads["run_mix"] = MixSpec(
        primary=primary, secondary=secondary, ratio=3, io_count=io_count
    )
    workloads["run_parallel"] = ParallelSpec(
        base=specs["SW"], parallel_degree=4
    )
    return workloads


def bench_measured_runs(
    profile: str, logical_bytes: int, io_count: int, columnar: bool, repeat: int
) -> dict[str, dict[str, float]]:
    """Best-of-``repeat`` timings of the engine's recording pipeline.

    The same six workloads run through ``Engine(columnar=True)`` (the
    default columnar recording path, plain keys) and
    ``Engine(columnar=False)`` (the legacy per-IO object path,
    ``/object`` suffix — mirroring the batch/scalar convention of the
    device-level workloads).  Both produce bit-identical traces, so the
    ratio is pure recording overhead.

    The columnar pass also reports the trace IPC sizes once per profile
    (``{profile}/trace_pickle``): pickle bytes of one RW run's trace in
    the packed columnar format vs the legacy object graph.
    """
    suffix = "" if columnar else "/object"
    best_sec: dict[str, float] = {}
    sizes: tuple[int, int] | None = None
    workloads = _run_specs(logical_bytes, io_count)
    for _ in range(max(repeat, 1)):
        device = build_device(profile, logical_bytes=logical_bytes)
        engine = Engine(device, columnar=columnar)
        for name, spec in workloads.items():
            start = time.perf_counter()
            run = engine.run(spec)
            elapsed = time.perf_counter() - start
            key = f"{profile}/{name}{suffix}"
            best_sec[key] = min(best_sec.get(key, elapsed), elapsed)
            if columnar and name == "run_RW" and sizes is None:
                sizes = pickled_sizes(run.trace)
    results = {key: _entry(sec, io_count) for key, sec in best_sec.items()}
    if sizes is not None:
        columnar_bytes, object_bytes = sizes
        results[f"{profile}/trace_pickle"] = {
            "columnar_bytes": columnar_bytes,
            "object_graph_bytes": object_bytes,
            "reduction": round(object_bytes / max(columnar_bytes, 1), 2),
        }
    return results


#: queue depths of the NCQ sweep (1 = the synchronous reference)
QUEUE_DEPTHS = (1, 4, 32)


def bench_queue_depths(
    profile: str, logical_bytes: int, io_count: int, repeat: int
) -> dict[str, dict[str, float]]:
    """Best-of-``repeat`` timings of a random-read run per queue depth.

    Each depth runs the same RR spec through the engine on a fresh
    device (``run_RR_qd1`` is the synchronous reference; deeper runs
    take the queued host).  Besides the usual host-side throughput
    numbers, each entry reports the *simulated* ``device_iops`` — IO
    count over the run's makespan — which is where channel-level overlap
    shows: on a multi-channel profile it should scale with depth up to
    the channel count.
    """
    spec = baselines(
        io_size=16 * KIB,
        io_count=io_count,
        random_target_size=logical_bytes,
    )["RR"]
    best_sec: dict[str, float] = {}
    sim_iops: dict[str, float] = {}
    for _ in range(max(repeat, 1)):
        for depth in QUEUE_DEPTHS:
            device = build_device(profile, logical_bytes=logical_bytes)
            engine = Engine(device)
            start = time.perf_counter()
            run = engine.run(spec.with_(queue_depth=depth))
            elapsed = time.perf_counter() - start
            key = f"{profile}/run_RR_qd{depth}"
            best_sec[key] = min(best_sec.get(key, elapsed), elapsed)
            trace = run.trace
            makespan = float(
                trace.column("completed_at").max()
                - trace.column("submitted_at").min()
            )
            sim_iops[key] = io_count / makespan * 1e6 if makespan > 0 else 0.0
    results = {}
    for key, sec in best_sec.items():
        entry = _entry(sec, io_count)
        entry["device_iops"] = round(sim_iops[key], 1)
        results[key] = entry
    return results


def bench_gc_epochs(
    profile: str, logical_bytes: int, io_count: int, repeat: int
) -> dict[str, dict[str, float]]:
    """Best-of-``repeat`` timings of the closed-form kernel workloads.

    Both workloads start from an *enforced* device, whose free pool
    sits at the GC watermark.  ``run_RW_gc`` issues random 16 KiB
    writes re-covering the device, so the stream crosses a collection
    every few IOs and the GC-epoch kernel carries the whole run as
    closed-form appends between real relocation steps.
    ``run_RR_qd32_analytic`` drives the same enforced state with
    depth-32 random reads through the queued completion kernel's
    vectorized event schedule.

    Each workload is timed twice: kernels on (plain key) and with the
    analytic layer switched off (``/fallback`` suffix), which sends the
    hosts through their per-IO reference loops.  The batch controller
    paths stay on in both passes, so the ratio isolates the closed-form
    kernels rather than the older batch machinery, and enforcement
    itself always runs with kernels on — both passes measure the same
    device state bit-identically.

    Page-map profiles are rebuilt as a tight-spare, foreground-GC
    variant of the same timing profile: the stock spare area plus
    background reclamation would take tens of MiB of writes before the
    first collection, so on the stock device ``run_RW_gc`` would mostly
    time the GC-free fill.  The tight variant reaches the watermark
    during enforcement, so the timed run sits in GC steady state from
    its first window.
    """
    if get_profile(profile).ftl_kind == "pagemap":
        variant = scaled_profile(
            profile,
            name=f"{profile}-gc-bench",
            spare_blocks=8,
            pagemap=PageMapConfig(gc_low_blocks=4, bg_enabled=False),
        )
        build = lambda: variant.build(logical_bytes)  # noqa: E731
    else:
        build = lambda: build_device(  # noqa: E731
            profile, logical_bytes=logical_bytes
        )
    write_spec = baselines(
        io_size=16 * KIB,
        io_count=io_count,
        random_target_size=logical_bytes,
    )["RW"]
    read_spec = baselines(
        io_size=16 * KIB,
        io_count=io_count,
        random_target_size=logical_bytes,
    )["RR"].with_(queue_depth=32)
    workloads = (
        ("run_RW_gc", write_spec),
        ("run_RR_qd32_analytic", read_spec),
    )
    best_sec: dict[str, float] = {}
    for _ in range(max(repeat, 1)):
        for enabled in (True, False):
            suffix = "" if enabled else "/fallback"
            for name, spec in workloads:
                device = build()
                enforce_random_state(device)
                engine = Engine(device)
                saved = analytic.ENABLED
                analytic.ENABLED = enabled
                try:
                    start = time.perf_counter()
                    engine.run(spec)
                    elapsed = time.perf_counter() - start
                finally:
                    analytic.ENABLED = saved
                key = f"{profile}/{name}{suffix}"
                best_sec[key] = min(best_sec.get(key, elapsed), elapsed)
    return {key: _entry(sec, io_count) for key, sec in best_sec.items()}


def bench_recorder(
    profile: str, logical_bytes: int, io_count: int, repeat: int
) -> dict[str, dict[str, float]]:
    """Best-of-``repeat`` timings of the RW run with/without the recorder.

    ``run_RW_recorder_off`` is the plain hot path on a device that never
    had a flight recorder attached — committed to the baseline so the
    gate pins the disabled-recorder cost (one attribute check per
    dispatch) at parity.  ``run_RW_recorder_on`` measures the full
    attribution pipeline (provenance scopes, partition walk,
    apportionment, trace columns) for the report; attribution is an
    opt-in campaign mode, so its absolute cost is informational.
    """
    spec = baselines(
        io_size=16 * KIB,
        io_count=io_count,
        random_target_size=logical_bytes // 2,
    )["RW"]
    best_sec: dict[str, float] = {}
    for _ in range(max(repeat, 1)):
        for attached in (False, True):
            device = build_device(profile, logical_bytes=logical_bytes)
            if attached:
                device.attach_recorder(FlightRecorder())
            engine = Engine(device)
            start = time.perf_counter()
            engine.run(spec)
            elapsed = time.perf_counter() - start
            key = f"{profile}/run_RW_recorder_{'on' if attached else 'off'}"
            best_sec[key] = min(best_sec.get(key, elapsed), elapsed)
    return {key: _entry(sec, io_count) for key, sec in best_sec.items()}


def bench_snapshot_pack(
    profile: str, logical_bytes: int, repeat: int
) -> dict[str, dict[str, float]]:
    """Snapshot distribution stats (``{profile}/snapshot_pack``).

    Best-of-``repeat`` timings of the campaign executor's state-handoff
    primitives on an enforced device: flat-buffer packing
    (:func:`~repro.flashsim.snapshot.pack_snapshot`, what the publisher
    pays once per state), unpack-plus-restore (what a worker pays per
    shared-memory attach), and the legacy whole-snapshot pickle for
    comparison.  ``packed_bytes`` vs ``pickled_bytes`` shows the size of
    a shared segment against the per-cell pipe traffic it replaces.
    Stat-only entry: no ``usec_per_io``, so the --baseline gate skips it.
    """
    import pickle

    from repro.flashsim.snapshot import pack_snapshot, unpack_snapshot

    device = build_device(profile, logical_bytes=logical_bytes)
    enforce_random_state(device)
    snapshot = device.snapshot()
    target = build_device(profile, logical_bytes=logical_bytes)
    pack_sec = unpack_sec = pickle_sec = float("inf")
    packed_bytes = pickled_bytes = 0
    for _ in range(max(repeat, 1)):
        start = time.perf_counter()
        packed = pack_snapshot(snapshot)
        pack_sec = min(pack_sec, time.perf_counter() - start)
        packed_bytes = packed.nbytes

        start = time.perf_counter()
        target.restore(unpack_snapshot(packed))
        unpack_sec = min(unpack_sec, time.perf_counter() - start)

        start = time.perf_counter()
        blob = pickle.dumps(snapshot, pickle.HIGHEST_PROTOCOL)
        pickle_sec = min(pickle_sec, time.perf_counter() - start)
        pickled_bytes = len(blob)
    return {
        f"{profile}/snapshot_pack": {
            "pack_usec": round(pack_sec * 1e6, 1),
            "unpack_restore_usec": round(unpack_sec * 1e6, 1),
            "pickle_usec": round(pickle_sec * 1e6, 1),
            "packed_bytes": packed_bytes,
            "pickled_bytes": pickled_bytes,
        }
    }


def _workload_speedup(
    entries: dict[str, dict[str, float]],
    profile: str,
    name: str,
    slow_suffix: str,
) -> float | None:
    """Speedup (slow-twin over fast usec/io) for one workload, or None
    when either side is absent (e.g. --batch-only runs)."""
    fast = entries.get(f"{profile}/{name}")
    slow = entries.get(f"{profile}/{name}/{slow_suffix}")
    if not fast or not slow:
        return None
    return slow["usec_per_io"] / max(fast["usec_per_io"], 1e-9)


def check_baseline(
    results: dict[str, dict[str, float]], baseline_path: Path
) -> list[str]:
    """Workloads whose usec_per_io (or enforce speedup) regressed past
    the gate."""
    baseline = json.loads(baseline_path.read_text())
    regressions = []
    for workload, entry in results.items():
        old = baseline.get(workload)
        # stat-only entries (e.g. trace_pickle sizes) carry no timing
        if not old or "usec_per_io" not in old or "usec_per_io" not in entry:
            continue
        if entry["usec_per_io"] > REGRESSION_FACTOR * old["usec_per_io"]:
            regressions.append(
                f"{workload}: {entry['usec_per_io']} usec/io vs "
                f"baseline {old['usec_per_io']} (> {REGRESSION_FACTOR}x)"
            )
    # the speedup gates: machine-independent, so far tighter than the
    # absolute-time factor — they trip when a fast path stops engaging
    profiles = {w.split("/", 1)[0] for w in results if "/" in w}
    for profile in sorted(profiles):
        for name, slow_suffix, retention in SPEEDUP_GATES:
            new_ratio = _workload_speedup(results, profile, name, slow_suffix)
            old_ratio = _workload_speedup(baseline, profile, name, slow_suffix)
            if new_ratio is None or old_ratio is None:
                continue
            if new_ratio < retention * old_ratio:
                regressions.append(
                    f"{profile}: {name}/{slow_suffix} speedup {new_ratio:.2f}x vs "
                    f"baseline {old_ratio:.2f}x (< {retention}x retention)"
                )
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profiles",
        default=",".join(DEFAULT_PROFILES),
        help="comma-separated profile names, or 'all'",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small device (4 MiB) and short sweeps for CI",
    )
    parser.add_argument(
        "--size-mib", type=int, default=0, help="logical capacity override (MiB)"
    )
    parser.add_argument(
        "--io-count", type=int, default=0, help="IOs per baseline pattern"
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="write results JSON here"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed BENCH_hotpath.json to gate against",
    )
    parser.add_argument(
        "--batch-only",
        action="store_true",
        help="skip the scalar reference measurements",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="repetitions per workload; the minimum time is reported",
    )
    args = parser.parse_args(argv)

    if args.profiles == "all":
        profiles = profile_names()
    else:
        profiles = [p.strip() for p in args.profiles.split(",") if p.strip()]
    logical = (args.size_mib or (4 if args.quick else 16)) * MIB
    io_count = args.io_count or (128 if args.quick else 1024)

    _warm_up(profiles[0])
    results: dict[str, dict[str, float]] = {}
    for profile in profiles:
        for batch in (True,) if args.batch_only else (True, False):
            mode = "batch" if batch else "scalar"
            print(f"benchmarking {profile} ({mode}) ...", flush=True)
            results.update(
                bench_profile(profile, logical, io_count, batch, args.repeat)
            )
        if not args.batch_only:
            print(f"benchmarking {profile} (oracle) ...", flush=True)
            results.update(bench_oracle(profile, logical, args.repeat))
        for columnar in (True,) if args.batch_only else (True, False):
            mode = "columnar" if columnar else "object"
            print(f"benchmarking {profile} runs ({mode}) ...", flush=True)
            results.update(
                bench_measured_runs(
                    profile, logical, io_count, columnar, args.repeat
                )
            )
        print(f"benchmarking {profile} queue depths ...", flush=True)
        results.update(
            bench_queue_depths(profile, logical, io_count, args.repeat)
        )
        print(f"benchmarking {profile} GC epochs ...", flush=True)
        results.update(
            bench_gc_epochs(profile, logical, io_count, args.repeat)
        )
        print(f"benchmarking {profile} flight recorder ...", flush=True)
        results.update(
            bench_recorder(profile, logical, io_count, args.repeat)
        )
        print(f"benchmarking {profile} snapshot packing ...", flush=True)
        results.update(
            bench_snapshot_pack(profile, logical, args.repeat)
        )

    print(json.dumps(results, indent=2))
    for profile in profiles:
        for name, slow_suffix in (
            *((name, suffix) for name, suffix, _ in SPEEDUP_GATES),
            ("run_RR_qd32_analytic", "fallback"),
        ):
            speedup = _workload_speedup(results, profile, name, slow_suffix)
            if speedup is not None:
                print(
                    f"{profile}: {name} speedup {speedup:.2f}x "
                    f"({slow_suffix}/fast)"
                )
        for name in (*(f"run_{p}" for p in PATTERN_ORDER), "run_mix", "run_parallel"):
            plain = f"{profile}/{name}"
            legacy = f"{profile}/{name}/object"
            if plain in results and legacy in results:
                speedup = (
                    results[legacy]["usec_per_io"]
                    / max(results[plain]["usec_per_io"], 1e-9)
                )
                print(f"{profile}: {name} speedup {speedup:.2f}x (object/columnar)")
        pickle_key = f"{profile}/trace_pickle"
        if pickle_key in results:
            print(
                f"{profile}: trace pickle "
                f"{results[pickle_key]['reduction']}x smaller (columnar)"
            )
        pack_key = f"{profile}/snapshot_pack"
        if pack_key in results:
            entry = results[pack_key]
            print(
                f"{profile}: snapshot pack {entry['pack_usec']:.0f} usec, "
                f"restore {entry['unpack_restore_usec']:.0f} usec "
                f"({entry['packed_bytes'] // 1024} KiB shared vs "
                f"{entry['pickled_bytes'] // 1024} KiB pickled per cell)"
            )
        rec_off = f"{profile}/run_RW_recorder_off"
        rec_on = f"{profile}/run_RW_recorder_on"
        if rec_off in results and rec_on in results:
            overhead = (
                results[rec_on]["usec_per_io"]
                / max(results[rec_off]["usec_per_io"], 1e-9)
            )
            print(
                f"{profile}: flight-recorder attribution costs "
                f"{overhead:.2f}x on RW (opt-in)"
            )
        qd_low = f"{profile}/run_RR_qd{QUEUE_DEPTHS[0]}"
        qd_high = f"{profile}/run_RR_qd{QUEUE_DEPTHS[-1]}"
        if qd_low in results and qd_high in results:
            channels = get_profile(profile).timing.channels
            scaling = (
                results[qd_high]["device_iops"]
                / max(results[qd_low]["device_iops"], 1e-9)
            )
            print(
                f"{profile}: queued RR scaling "
                f"{scaling:.2f}x at qd{QUEUE_DEPTHS[-1]} "
                f"({channels} channels)"
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
            print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
